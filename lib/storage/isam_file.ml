module Value = Tdb_relation.Value
module Attr_type = Tdb_relation.Attr_type

type level = { first_page : int; entry_count : int }

type t = {
  pf : Pfile.t;  (** data records *)
  dir : Pfile.t;  (** directory entries (encoded keys) over the same pool *)
  key_of : bytes -> Value.t;
  key_type : Attr_type.t;
  fillfactor : int;
  ndata : int;
  levels : level array;  (** \[0\] = leaf directory ... last = root *)
  first_keys : Value.t array;
      (** first build-time key of each data page (the leaf directory's
          contents, kept in memory to delimit duplicate runs) *)
  last_keys : Value.t array;
      (** last build-time key of each data page: a run of duplicates can
          spill across page boundaries, and lookups must notice that the
          page {e before} the located one may end with the probed key *)
}

let check_fillfactor ff =
  if ff < 1 || ff > 100 then
    invalid_arg (Printf.sprintf "Isam_file: fillfactor %d not in 1..100" ff)

let encode_key t key =
  let buf = Bytes.create (Attr_type.size t.key_type) in
  Value.encode t.key_type key buf 0;
  buf

let decode_key t buf = Value.decode t.key_type buf 0

let build pool ~record_size ~key_of ~key_type ~fillfactor records =
  check_fillfactor fillfactor;
  let pf = Pfile.create pool ~record_size in
  if Pfile.npages pf <> 0 then invalid_arg "Isam_file.build: disk is not empty";
  let dir = Pfile.create pool ~record_size:(Attr_type.size key_type) in
  let sorted =
    List.stable_sort (fun a b -> Value.compare (key_of a) (key_of b)) records
  in
  let per_page = max 1 (Pfile.capacity pf * fillfactor / 100) in
  (* Fill data pages. *)
  let first_keys = ref [] in
  let last_keys = ref [] in
  let count_on_page = ref per_page (* force a fresh page for the first record *) in
  let current_page = ref (-1) in
  List.iter
    (fun r ->
      if !count_on_page >= per_page then begin
        current_page := Pfile.allocate_page pf;
        count_on_page := 0;
        first_keys := key_of r :: !first_keys
      end
      else last_keys := List.tl !last_keys;
      last_keys := key_of r :: !last_keys;
      Pfile.write_record pf { Tid.page = !current_page; slot = !count_on_page } r;
      incr count_on_page)
    sorted;
  if !first_keys = [] then begin
    (* An empty relation still gets one data page so inserts have a home. *)
    ignore (Pfile.allocate_page pf);
    let zero =
      match key_type with
      | Attr_type.I1 | I2 | I4 -> Value.Int 0
      | F4 | F8 -> Value.Float 0.
      | C _ -> Value.Str ""
      | Time -> Value.Time (Tdb_time.Chronon.of_seconds 0)
    in
    first_keys := [ zero ];
    last_keys := [ zero ]
  end;
  let ndata = Pfile.npages pf in
  let t0 =
    {
      pf;
      dir;
      key_of;
      key_type;
      fillfactor;
      ndata;
      levels = [||];
      first_keys = Array.of_list (List.rev !first_keys);
      last_keys = Array.of_list (List.rev !last_keys);
    }
  in
  (* Build directory levels bottom-up until a level fits one page. *)
  let dir_cap = Pfile.capacity dir in
  let write_level keys =
    let first_page = ref None in
    let slot = ref dir_cap in
    let page = ref (-1) in
    List.iter
      (fun k ->
        if !slot >= dir_cap then begin
          page := Pfile.allocate_page dir;
          if !first_page = None then first_page := Some !page;
          slot := 0
        end;
        Pfile.write_record dir { Tid.page = !page; slot = !slot } (encode_key t0 k);
        incr slot)
      keys;
    match !first_page with
    | Some p -> { first_page = p; entry_count = List.length keys }
    | None -> assert false
  in
  let rec build_levels acc keys =
    let level = write_level keys in
    let npages_this = (level.entry_count + dir_cap - 1) / dir_cap in
    if npages_this <= 1 then List.rev (level :: acc)
    else begin
      (* First key of each page of this level feeds the level above. *)
      let rec firsts i ks =
        if i >= level.entry_count then List.rev ks
        else
          let k = List.nth keys i in
          firsts (i + dir_cap) (k :: ks)
      in
      build_levels (level :: acc) (firsts 0 [])
    end
  in
  let levels = Array.of_list (build_levels [] (List.rev !first_keys)) in
  { t0 with levels }

let attach pool ~record_size ~key_of ~key_type ~fillfactor ~ndata ~levels =
  check_fillfactor fillfactor;
  if ndata < 1 then invalid_arg "Isam_file.attach: ndata must be >= 1";
  (* The catalog's page accounting must fit inside the stored file: a file
     shorter than its primary area or directory extent lost pages (e.g. to
     a torn-tail truncation) and cannot be served. *)
  let npages = Buffer_pool.npages pool in
  let dir_cap = Page.capacity ~record_size:(Attr_type.size key_type) in
  let required =
    List.fold_left
      (fun acc (first_page, entry_count) ->
        max acc (first_page + ((entry_count + dir_cap - 1) / dir_cap)))
      ndata levels
  in
  if npages < required then
    Tdb_error.corruption
      "isam file has %d page(s) but its catalog metadata needs %d (data \
       pages + directory); the file was truncated"
      npages required;
  let pf = Pfile.create pool ~record_size in
  let dir = Pfile.create pool ~record_size:(Attr_type.size key_type) in
  let zero =
    match key_type with
    | Attr_type.I1 | I2 | I4 -> Value.Int 0
    | F4 | F8 -> Value.Float 0.
    | C _ -> Value.Str ""
    | Time -> Value.Time (Tdb_time.Chronon.of_seconds 0)
  in
  let first_keys = Array.make ndata zero in
  let last_keys = Array.make ndata zero in
  for page = 0 to ndata - 1 do
    let lo = ref None and hi = ref None in
    Pfile.page_iter pf ~page (fun _ record ->
        let k = key_of record in
        (match !lo with
        | Some l when Value.compare l k <= 0 -> ()
        | _ -> lo := Some k);
        match !hi with
        | Some h when Value.compare h k >= 0 -> ()
        | _ -> hi := Some k);
    first_keys.(page) <- Option.value !lo ~default:zero;
    last_keys.(page) <- Option.value !hi ~default:zero
  done;
  {
    pf;
    dir;
    key_of;
    key_type;
    fillfactor;
    ndata;
    levels =
      Array.of_list
        (List.map (fun (first_page, entry_count) -> { first_page; entry_count })
           levels);
    first_keys;
    last_keys;
  }

let levels t =
  Array.to_list (Array.map (fun l -> (l.first_page, l.entry_count)) t.levels)

let pfile t = t.pf

(* A read-path clone over a different buffer pool (see [Pfile.with_pool]).
   Both the data pfile {e and} the directory pfile rebind: a probe's
   directory descent performs page I/O too, and it must go through the
   clone's private frames. *)
let with_pool t pool =
  { t with pf = Pfile.with_pool t.pf pool; dir = Pfile.with_pool t.dir pool }

let fillfactor t = t.fillfactor
let data_pages t = t.ndata
let directory_height t = Array.length t.levels

let directory_pages t =
  let dir_cap = Pfile.capacity t.dir in
  Array.fold_left
    (fun acc l -> acc + ((l.entry_count + dir_cap - 1) / dir_cap))
    0 t.levels

(* Find the data page that should hold [key]: descend from the root, at
   each level reading the single page that covers the current child index
   and choosing the largest entry whose key is <= [key].  Then walk back
   over pages whose build-time contents may also hold [key] (a duplicate
   run spilling across page boundaries), so that inserts and lookups agree
   on the first candidate page. *)
let locate_data_page t key =
  let dir_cap = Pfile.capacity t.dir in
  let rec descend level child =
    if level < 0 then child
    else
      let l = t.levels.(level) in
      let page_index = child in
      let page_id = l.first_page + page_index in
      let base = page_index * dir_cap in
      let entries_here = min dir_cap (l.entry_count - base) in
      let chosen = ref 0 in
      for s = 0 to entries_here - 1 do
        let k = decode_key t (Pfile.read_record t.dir { Tid.page = page_id; slot = s }) in
        if Value.compare k key <= 0 then chosen := s
      done;
      descend (level - 1) (base + !chosen)
  in
  let located = descend (Array.length t.levels - 1) 0 in
  let rec back page =
    if page > 0 && Value.compare t.last_keys.(page - 1) key >= 0 then
      back (page - 1)
    else page
  in
  back located

let insert t record =
  let page = locate_data_page t (t.key_of record) in
  Pfile.chain_insert t.pf ~head:page record

let read t tid = Pfile.read_record t.pf tid
let update t tid record = Pfile.write_record t.pf tid record
let delete t tid = Pfile.clear_record t.pf tid

let scan_cursor ?window ?keep t =
  Cursor.of_chains ?window ?filter:keep t.pf ~heads:(Seq.init t.ndata Fun.id)

let lookup_cursor ?window ?keep t key =
  (* ISAM access: directory descent (counted I/O, performed here so the
     cursor's first pull doesn't hide it), then forward through every
     data page whose build-time first key does not exceed the probe: a
     duplicate run can span several primary pages.  With unique keys
     this is just the one located page. *)
  let start = locate_data_page t key in
  let heads =
    Seq.unfold
      (fun page ->
        if page < t.ndata
           && (page = start || Value.compare t.first_keys.(page) key <= 0)
        then Some (page, page + 1)
        else None)
      start
  in
  Cursor.of_chains ?window t.pf ~heads
    ?filter:
      (Cursor.and_keep keep
         (Some (fun record -> Value.equal (t.key_of record) key)))

let range_cursor ?window ?keep t ~lo ~hi =
  let first = match lo with Some k -> locate_data_page t k | None -> 0 in
  let in_range k =
    (match lo with Some l -> Value.compare l k <= 0 | None -> true)
    && match hi with Some h -> Value.compare k h <= 0 | None -> true
  in
  (* A page whose build-time first key exceeds [hi] cannot hold in-range
     records: post-build inserts only ever land on the page the directory
     locates for their key, which for a key <= hi lies earlier.  Checking
     the in-memory bound avoids reading one page past the range. *)
  let page_may_qualify page =
    page = first
    ||
    match hi with
    | Some h -> Value.compare t.first_keys.(page) h <= 0
    | None -> true
  in
  let heads =
    Seq.unfold
      (fun page ->
        if page < t.ndata && page_may_qualify page then Some (page, page + 1)
        else None)
      first
  in
  Cursor.of_chains ?window t.pf ~heads
    ?filter:
      (Cursor.and_keep keep (Some (fun record -> in_range (t.key_of record))))

(* --- probe runs, for partition-parallel probes ---

   [lookup_cursor key] walks exactly the pages [range_cursor ~lo:(Some
   key) ~hi:(Some key)] walks, with the same filter (the unfold
   conditions coincide once lo = hi = key), so a single run abstraction
   covers both.  A run is the contiguous data-page interval [start, stop)
   the probe's heads come from; partitioning it into sub-runs of heads
   (each owning its overflow chain) is page-disjoint and order-preserving
   by construction. *)

let run_from t ~first ~hi =
  let qualifies page =
    page = first
    ||
    match hi with
    | Some h -> Value.compare t.first_keys.(page) h <= 0
    | None -> true
  in
  let stop = ref first in
  while !stop < t.ndata && qualifies !stop do
    incr stop
  done;
  (first, !stop)

let range_run t ~lo ~hi =
  let first = match lo with Some k -> locate_data_page t k | None -> 0 in
  run_from t ~first ~hi

(* [locate_data_page] without the directory I/O: the directory levels are
   built from (and never diverge from) the in-memory [first_keys], so the
   descent's result — the largest leaf entry <= key, then the duplicate
   back-walk — can be re-derived by binary search.  For sizing previews
   only; the real probe still pays the descent reads. *)
let locate_data_page_mem t key =
  let located =
    if Value.compare t.first_keys.(0) key > 0 then 0
    else begin
      let lo = ref 0 and hi = ref t.ndata in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if Value.compare t.first_keys.(mid) key <= 0 then lo := mid
        else hi := mid
      done;
      !lo
    end
  in
  let rec back page =
    if page > 0 && Value.compare t.last_keys.(page - 1) key >= 0 then
      back (page - 1)
    else page
  in
  back located

let range_run_mem t ~lo ~hi =
  let first = match lo with Some k -> locate_data_page_mem t k | None -> 0 in
  run_from t ~first ~hi

let range_filter t ~lo ~hi record =
  let k = t.key_of record in
  (match lo with Some l -> Value.compare l k <= 0 | None -> true)
  && match hi with Some h -> Value.compare k h <= 0 | None -> true

let lookup ?window t key f = Cursor.iter (lookup_cursor ?window t key) f
let iter ?window t f = Cursor.iter (scan_cursor ?window t) f

let iter_range ?window t ?lo ?hi f =
  Cursor.iter (range_cursor ?window t ~lo ~hi) f

let npages t = Pfile.npages t.pf
