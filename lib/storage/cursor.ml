(* Unified access-path cursors.

   Every access method (heap, hash, ISAM) is a source of page-sized
   record chunks; a cursor strings chunks into tuple batches of
   ~[target] records.  Batches are page-aligned — a chunk is never split
   across batches — so batching changes how records flow to the executor
   but never which pages are read, in what order, or how fence pruning
   is charged: all of that happens inside the chunk functions, which are
   the same {!Pfile} step primitives the eager iterators use. *)

type batch = { tids : Tid.t array; records : bytes array }

let target = 64

type t = {
  next_chunk : unit -> (Tid.t * bytes) list option;
      (* one page's surviving records per pull ([] for a filtered-out or
         fence-skipped page); [None] once the source is exhausted *)
  mutable exhausted : bool;
}

let of_chunks next_chunk = { next_chunk; exhausted = false }
let empty = of_chunks (fun () -> None)

let next t =
  if t.exhausted then None
  else begin
    let chunks = ref [] in
    let n = ref 0 in
    let rec fill () =
      if !n < target then
        match t.next_chunk () with
        | None -> t.exhausted <- true
        | Some [] -> fill ()
        | Some recs ->
            chunks := recs :: !chunks;
            n := !n + List.length recs;
            fill ()
    in
    fill ();
    match List.concat (List.rev !chunks) with
    | [] -> None
    | (tid0, rec0) :: _ as items ->
        let tids = Array.make !n tid0 in
        let records = Array.make !n rec0 in
        List.iteri
          (fun i (tid, r) ->
            tids.(i) <- tid;
            records.(i) <- r)
          items;
        Some { tids; records }
  end

let iter t f =
  let rec go () =
    match next t with
    | None -> ()
    | Some b ->
        for i = 0 to Array.length b.tids - 1 do
          f b.tids.(i) b.records.(i)
        done;
        go ()
  in
  go ()

let fold t ~init f =
  let acc = ref init in
  iter t (fun tid r -> acc := f !acc tid r);
  !acc

let and_keep keep filter =
  match (filter, keep) with
  | f, None -> f
  | None, Some k -> Some k
  | Some f, Some k -> Some (fun r -> f r && k r)

let of_pages ?window ?filter pf ~pages =
  let pages = ref pages in
  of_chunks (fun () ->
      match !pages () with
      | Seq.Nil -> None
      | Seq.Cons (page, rest) ->
          pages := rest;
          Some (Pfile.page_step ?window ?filter pf ~page))

let of_chains ?window ?filter pf ~heads =
  let heads = ref heads in
  (* (current page of the chain in progress, pages walked so far) *)
  let current = ref None in
  let rec chunk () =
    match !current with
    | Some (page, walked) ->
        let records, next = Pfile.chain_step ?window ?filter pf ~page in
        (match next with
        | Some n -> current := Some (n, walked + 1)
        | None ->
            Pfile.observe_chain_length walked;
            current := None);
        Some records
    | None -> (
        match !heads () with
        | Seq.Nil -> None
        | Seq.Cons (head, rest) ->
            heads := rest;
            current := Some (head, 1);
            chunk ())
  in
  of_chunks chunk
