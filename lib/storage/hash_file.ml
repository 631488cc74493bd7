module Value = Tdb_relation.Value

type t = {
  pf : Pfile.t;
  key_of : bytes -> Value.t;
  buckets : int;
  fillfactor : int;
}

let check_fillfactor ff =
  if ff < 1 || ff > 100 then
    invalid_arg (Printf.sprintf "Hash_file: fillfactor %d not in 1..100" ff)

let primary_pages ~capacity ~fillfactor n =
  let target = max 1 (capacity * fillfactor / 100) in
  max 1 ((n + target - 1) / target)

let bucket_of t key = Value.hash key mod t.buckets

let insert t record =
  let head = bucket_of t (t.key_of record) in
  Pfile.chain_insert t.pf ~head record

let build pool ~record_size ~key_of ~fillfactor records =
  check_fillfactor fillfactor;
  let pf = Pfile.create pool ~record_size in
  if Pfile.npages pf <> 0 then invalid_arg "Hash_file.build: disk is not empty";
  let buckets =
    primary_pages ~capacity:(Pfile.capacity pf) ~fillfactor
      (List.length records)
  in
  for _ = 1 to buckets do
    ignore (Pfile.allocate_page pf)
  done;
  let t = { pf; key_of; buckets; fillfactor } in
  List.iter (fun r -> ignore (insert t r)) records;
  t

let attach pool ~record_size ~key_of ~fillfactor ~buckets =
  check_fillfactor fillfactor;
  if buckets < 1 then invalid_arg "Hash_file.attach: buckets must be >= 1";
  (* [build] materializes every primary bucket page up front, so a healthy
     stored hash file can never be shorter than its bucket count; one that
     is lost part of its primary area (e.g. to a torn-tail truncation). *)
  let npages = Buffer_pool.npages pool in
  if npages < buckets then
    Tdb_error.corruption
      "hash file has %d page(s) but needs %d primary bucket page(s); the \
       primary area was truncated"
      npages buckets;
  { pf = Pfile.create pool ~record_size; key_of; buckets; fillfactor }

let buckets t = t.buckets
let fillfactor t = t.fillfactor
let pfile t = t.pf

(* A read-path clone over a different buffer pool (see [Pfile.with_pool]). *)
let with_pool t pool = { t with pf = Pfile.with_pool t.pf pool }
let read t tid = Pfile.read_record t.pf tid
let update t tid record = Pfile.write_record t.pf tid record
let delete t tid = Pfile.clear_record t.pf tid

(* The record filters the probe cursors below apply, exposed so a
   partitioned probe (sub-runs of the bucket chain, or of the whole
   primary area for a range) filters records exactly as the sequential
   cursor does. *)

let lookup_filter t key record = Value.equal (t.key_of record) key

let range_filter t ~lo ~hi record =
  let k = t.key_of record in
  (match lo with Some l -> Value.compare l k <= 0 | None -> true)
  && match hi with Some u -> Value.compare k u <= 0 | None -> true

let scan_cursor ?window ?keep t =
  Cursor.of_chains ?window ?filter:keep t.pf ~heads:(Seq.init t.buckets Fun.id)

let lookup_cursor ?window ?keep t key =
  (* Hashed access: the key's full bucket chain (any page may hold a
     matching version), filtered down to equal keys. *)
  Cursor.of_chains ?window t.pf
    ~heads:(Seq.return (bucket_of t key))
    ?filter:(Cursor.and_keep keep (Some (lookup_filter t key)))

let range_cursor ?window ?keep t ~lo ~hi =
  (* No order in a hash file: filter a full scan. *)
  match (lo, hi) with
  | None, None -> scan_cursor ?window ?keep t
  | _ ->
      Cursor.of_chains ?window t.pf
        ~heads:(Seq.init t.buckets Fun.id)
        ?filter:(Cursor.and_keep keep (Some (range_filter t ~lo ~hi)))

let lookup ?window t key f = Cursor.iter (lookup_cursor ?window t key) f
let iter ?window t f = Cursor.iter (scan_cursor ?window t) f

let npages t = Pfile.npages t.pf

let chain_pages t key =
  Pfile.chain_length t.pf ~head:(bucket_of t key)
