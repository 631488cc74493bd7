module Pfile = Tdb_storage.Pfile
module Tid = Tdb_storage.Tid
module Page = Tdb_storage.Page
module Buffer_pool = Tdb_storage.Buffer_pool
module Cursor = Tdb_storage.Cursor
module Value = Tdb_relation.Value

type t = {
  pf : Pfile.t;
  tuple_size : int;
  clustered : bool;
  cluster_tail : (Value.t, int) Hashtbl.t;
      (** clustered policy: the page currently receiving this tuple's
          versions *)
  mutable fill_tail : int;
      (** simple policy: the page currently receiving appends (-1 before
          the first) *)
}

let ptr_size = 4

let create pool ~tuple_size ~clustered =
  let pf = Pfile.create pool ~record_size:(tuple_size + ptr_size) in
  if Pfile.npages pf <> 0 then
    invalid_arg "History_store.create: disk is not empty";
  { pf; tuple_size; clustered; cluster_tail = Hashtbl.create 64; fill_tail = -1 }

let clustered t = t.clustered
let npages t = Pfile.npages t.pf

let encode t tuple prev =
  let record = Bytes.create (t.tuple_size + ptr_size) in
  Bytes.blit tuple 0 record 0 t.tuple_size;
  (match prev with
  | None -> Bytes.set_int32_be record t.tuple_size 0l
  | Some p -> Tid.encode p record t.tuple_size);
  (* Tid encoding of page 0 slot 0 is 0, which collides with "none"; shift
     by one so every real pointer is nonzero. *)
  (match prev with
  | Some _ ->
      let raw = Bytes.get_int32_be record t.tuple_size in
      Bytes.set_int32_be record t.tuple_size (Int32.add raw 1l)
  | None -> ());
  record

let decode t record =
  let tuple = Bytes.sub record 0 t.tuple_size in
  let raw = Bytes.get_int32_be record t.tuple_size in
  let prev =
    if raw = 0l then None
    else begin
      let buf = Bytes.create 4 in
      Bytes.set_int32_be buf 0 (Int32.sub raw 1l);
      Some (Tid.decode buf 0)
    end
  in
  (tuple, prev)

let write_at t page record =
  match
    Page.find_free_slot
      ~record_size:(Pfile.record_size t.pf)
      (Buffer_pool.read (Pfile.pool t.pf) page)
  with
  | Some slot ->
      let tid = { Tid.page; slot } in
      Pfile.write_record t.pf tid record;
      Some tid
  | None -> None

let push t ~cluster ~tuple ~prev =
  let record = encode t tuple prev in
  let tail =
    if t.clustered then Hashtbl.find_opt t.cluster_tail cluster
    else if t.fill_tail >= 0 then Some t.fill_tail
    else None
  in
  match Option.bind tail (fun page -> write_at t page record) with
  | Some tid -> tid
  | None ->
      let page = Pfile.allocate_page t.pf in
      if t.clustered then Hashtbl.replace t.cluster_tail cluster page
      else t.fill_tail <- page;
      Option.get (write_at t page record)

let read t tid = decode t (Pfile.read_record t.pf tid)

let walk t ~head f =
  let rec go = function
    | None -> ()
    | Some tid ->
        let tuple, prev = read t tid in
        f tid tuple;
        go prev
  in
  go head

let iter t f =
  Cursor.iter
    (Cursor.of_pages t.pf ~pages:(Seq.init (Pfile.npages t.pf) Fun.id))
    (fun tid record -> f tid (fst (decode t record)))
