type t = { pf : Pfile.t; mutable fill_hint : int }

let create pool ~record_size =
  let pf = Pfile.create pool ~record_size in
  if Pfile.npages pf <> 0 then
    invalid_arg "Heap_file.create: disk is not empty";
  { pf; fill_hint = 0 }

let attach pool ~record_size =
  { pf = Pfile.create pool ~record_size; fill_hint = 0 }

let pfile t = t.pf

(* A read-path clone over a different buffer pool (see [Pfile.with_pool]):
   snapshot readers walk the same pages through private frames. *)
let with_pool t pool = { pf = Pfile.with_pool t.pf pool; fill_hint = t.fill_hint }

let insert t record =
  let n = Pfile.npages t.pf in
  if n = 0 then begin
    let page = Pfile.allocate_page t.pf in
    let tid = { Tid.page; slot = 0 } in
    Pfile.write_record t.pf tid record;
    tid
  end
  else begin
    (* First fit from the hint onward; the hint only moves forward, so holes
       left by deletions behind it are reused lazily after [delete] resets
       it. *)
    if t.fill_hint >= n then t.fill_hint <- n - 1;
    let rec go page =
      if page >= n then begin
        let fresh = Pfile.allocate_page t.pf in
        t.fill_hint <- fresh;
        let tid = { Tid.page = fresh; slot = 0 } in
        Pfile.write_record t.pf tid record;
        tid
      end
      else
        match
          Page.find_free_slot
            ~record_size:(Pfile.record_size t.pf)
            (Buffer_pool.read (Pfile.pool t.pf) page)
        with
        | Some slot ->
            t.fill_hint <- page;
            let tid = { Tid.page; slot } in
            Pfile.write_record t.pf tid record;
            tid
        | None -> go (page + 1)
    in
    go t.fill_hint
  end

let read t tid = Pfile.read_record t.pf tid
let update t tid record = Pfile.write_record t.pf tid record

let delete t tid =
  Pfile.clear_record t.pf tid;
  if tid.Tid.page < t.fill_hint then t.fill_hint <- tid.Tid.page

let scan_cursor ?window ?keep t =
  Cursor.of_pages ?window ?filter:keep t.pf
    ~pages:(Seq.init (Pfile.npages t.pf) Fun.id)

(* A heap has no key: probes and ranges present everything and let the
   caller filter, as the eager paths always did. *)
let lookup_cursor ?window ?keep t _key = scan_cursor ?window ?keep t
let range_cursor ?window ?keep t ~lo:_ ~hi:_ = scan_cursor ?window ?keep t

let iter ?window t f = Cursor.iter (scan_cursor ?window t) f

let npages t = Pfile.npages t.pf

let record_count t =
  let n = ref 0 in
  iter t (fun _ _ -> incr n);
  !n
