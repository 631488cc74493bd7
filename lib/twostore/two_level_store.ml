module Schema = Tdb_relation.Schema
module Tuple = Tdb_relation.Tuple
module Value = Tdb_relation.Value
module Db_type = Tdb_relation.Db_type
module Relation_file = Tdb_storage.Relation_file
module Buffer_pool = Tdb_storage.Buffer_pool
module Io_stats = Tdb_storage.Io_stats
module Disk = Tdb_storage.Disk
module Tid = Tdb_storage.Tid
module Chronon = Tdb_time.Chronon
module Period = Tdb_time.Period
module Cursor = Tdb_storage.Cursor
module Journal = Tdb_storage.Journal

type attached_index = {
  ix_attr : int;
  current_ix : Secondary_index.t;
  history_ix : Secondary_index.t;
}

type t = {
  schema : Schema.t;
  primary : Relation_file.t;
  history : History_store.t;
  history_stats : Io_stats.t;
  history_pool : Buffer_pool.t;
  heads : (Tid.t, Tid.t) Hashtbl.t;
      (* current version's address -> newest history version.  The paper's
         estimates, like the prototype they extend, do not charge the
         primary store for pointer storage; keeping heads out of line
         follows that accounting. *)
  indexes : (string, attached_index) Hashtbl.t;
  journal : Journal.t option;
      (* when attached, every mutating entry point below runs as one
         journal statement (unless the caller already opened one) *)
  key_index : int;
  tstart : int;
  tstop : int;
  valid_from : int;
  valid_to : int;
}

let schema t = t.schema
let primary t = t.primary
let history_pages t = History_store.npages t.history
let primary_pages t = Relation_file.npages t.primary

let create ?(name = "primary") ?segment_pages ?journal ~schema ~organization
    ~clustered tuples =
  (match Schema.db_type schema with
  | Db_type.Temporal Db_type.Interval -> ()
  | ty ->
      invalid_arg
        (Printf.sprintf
           "Two_level_store.create: needs a temporal interval relation, got %s"
           (Db_type.to_string ty)));
  let key_index =
    match organization with
    | Relation_file.Hash { key_attr; _ } | Relation_file.Isam { key_attr; _ } ->
        key_attr
    | Relation_file.Heap ->
        invalid_arg "Two_level_store.create: the primary store must be keyed"
  in
  let primary = Relation_file.create ~name ~schema () in
  List.iter (fun tu -> ignore (Relation_file.insert primary tu)) tuples;
  Relation_file.modify primary organization;
  let history_stats = Io_stats.create () in
  let history_pool = Buffer_pool.create (Disk.create_mem ()) history_stats in
  let history =
    History_store.create
      ?stamp:(Relation_file.stamp_extractor schema)
      ?segment_pages history_pool
      ~tuple_size:(Schema.tuple_size schema)
      ~clustered
  in
  (* Route both levels through the caller's journal: the primary store
     under its own name, the history pages under a derived tag.  The
     bulk load above happens outside any statement, so it is not
     journalled — it is the store's initial state, not an update. *)
  Option.iter
    (fun j ->
      Relation_file.set_journal primary j;
      Buffer_pool.attach_journal history_pool j ~file:(name ^ ".history"))
    journal;
  {
    schema;
    primary;
    history;
    history_stats;
    history_pool;
    heads = Hashtbl.create 1024;
    indexes = Hashtbl.create 4;
    journal;
    key_index;
    tstart = Option.get (Schema.transaction_start_index schema);
    tstop = Option.get (Schema.transaction_stop_index schema);
    valid_from = Option.get (Schema.valid_from_index schema);
    valid_to = Option.get (Schema.valid_to_index schema);
  }

(* --- secondary-index maintenance hooks --- *)

let index_current_insert t tuple tid =
  Hashtbl.iter
    (fun _ ix -> Secondary_index.insert ix.current_ix tuple.(ix.ix_attr) tid)
    t.indexes

let index_current_remove t tuple tid =
  Hashtbl.iter
    (fun _ ix ->
      ignore (Secondary_index.remove ix.current_ix tuple.(ix.ix_attr) tid))
    t.indexes

let index_history_insert t tuple htid =
  Hashtbl.iter
    (fun _ ix -> Secondary_index.insert ix.history_ix tuple.(ix.ix_attr) htid)
    t.indexes

(* One mutating entry point = one journal statement, unless the caller
   (the engine, say) already opened one — then we ride along in it. *)
let journaled t f =
  match t.journal with
  | Some j when not (Journal.in_statement j) ->
      Journal.begin_statement j;
      let r = f () in
      Journal.commit_statement j;
      r
  | _ -> f ()

let append t ~now tuple =
  journaled t @@ fun () ->
  let tuple = Array.copy tuple in
  tuple.(t.tstart) <- Value.Time now;
  tuple.(t.tstop) <- Value.Time Chronon.forever;
  let tid = Relation_file.insert t.primary tuple in
  index_current_insert t tuple tid

let m_history_appends =
  Tdb_obs.Metric.counter "tdb_twostore_history_appends_total"

let m_migrations = Tdb_obs.Metric.counter "tdb_twostore_migrations_total"

let push_history t ~now ~cluster ~tuple ~prev =
  Tdb_obs.Metric.incr m_history_appends;
  let htid =
    History_store.push t.history ~now ~cluster
      ~tuple:(Tuple.encode t.schema tuple)
      ~prev
  in
  index_history_insert t tuple htid;
  htid

(* Move the closing versions of [old_tuple] (at [tid]) into the history
   store: the superseded version (transaction time closed at [now]) and the
   "validity ended at now" version the temporal delete semantics insert. *)
let retire t ~now ~tid ~old_tuple =
  Tdb_obs.Metric.incr m_migrations;
  let cluster = old_tuple.(t.key_index) in
  let prev = Hashtbl.find_opt t.heads tid in
  let superseded = Tuple.set_time old_tuple t.tstop now in
  let head1 = push_history t ~now ~cluster ~tuple:superseded ~prev in
  let terminated = Array.copy old_tuple in
  terminated.(t.valid_to) <- Value.Time now;
  terminated.(t.tstart) <- Value.Time now;
  terminated.(t.tstop) <- Value.Time Chronon.forever;
  push_history t ~now ~cluster ~tuple:terminated ~prev:(Some head1)

let replace t ~now ~key update =
  journaled t @@ fun () ->
  let victims = ref [] in
  Relation_file.lookup t.primary key (fun tid tu -> victims := (tid, tu) :: !victims);
  List.iter
    (fun (tid, old_tuple) ->
      let head = retire t ~now ~tid ~old_tuple in
      let fresh = update (Array.copy old_tuple) in
      let fresh = Array.copy fresh in
      fresh.(t.valid_from) <- Value.Time now;
      fresh.(t.valid_to) <- Value.Time Chronon.forever;
      fresh.(t.tstart) <- Value.Time now;
      fresh.(t.tstop) <- Value.Time Chronon.forever;
      Relation_file.update t.primary tid fresh;
      index_current_remove t old_tuple tid;
      index_current_insert t fresh tid;
      Hashtbl.replace t.heads tid head)
    !victims;
  List.length !victims

let delete t ~now ~key =
  journaled t @@ fun () ->
  let victims = ref [] in
  Relation_file.lookup t.primary key (fun tid tu -> victims := (tid, tu) :: !victims);
  List.iter
    (fun (tid, old_tuple) ->
      ignore (retire t ~now ~tid ~old_tuple);
      Relation_file.delete t.primary tid;
      index_current_remove t old_tuple tid;
      Hashtbl.remove t.heads tid)
    !victims;
  List.length !victims

let current_lookup t key f =
  Relation_file.lookup t.primary key (fun _ tu -> f tu)

let current_scan t f = Relation_file.scan t.primary (fun _ tu -> f tu)

let version_scan t key f =
  let heads = ref [] in
  Relation_file.lookup t.primary key (fun tid tu ->
      f tu;
      heads := Hashtbl.find_opt t.heads tid :: !heads);
  List.iter
    (fun head ->
      History_store.walk t.history ~head (fun _ tuple_bytes ->
          f (Tuple.decode t.schema tuple_bytes 0)))
    (List.rev !heads)

(* --- batched cursors over both levels ---

   Primary and history records alike decode with [Tuple.decode schema _ 0]
   (history records carry a trailing back-pointer past the tuple bytes,
   which the decoder never reads), so one cursor can span the seam. *)

let decode_record t record = Tuple.decode t.schema record 0

let scan_cursor ?window t =
  Cursor.concat
    [
      Relation_file.cursor ?window t.primary Relation_file.Full_scan;
      History_store.scan_cursor ?window t.history;
    ]

(* Partitioned scan of both levels: the primary store's page-disjoint
   partitions followed by the history store's segment-aligned ones.  In
   list order this is exactly [scan_cursor]'s row order. *)
let partition_scan ?window t ~parts =
  Relation_file.partition_scan ?window t.primary ~parts
  @ History_store.partition_scan ?window t.history ~parts

let as_of_cursor t ~at =
  let window =
    {
      Tdb_storage.Time_fence.transaction = Some (Tdb_time.Period.at at);
      valid = None;
    }
  in
  Cursor.concat
    [
      Relation_file.cursor ~window t.primary Relation_file.Full_scan;
      History_store.as_of_cursor t.history ~at;
    ]

let scan_all t f = Cursor.iter (scan_cursor t) (fun _ r -> f (decode_record t r))

(* --- epoch-fenced snapshot reads ---

   The session layer's visibility rule, specialized to the two levels:

   - the history store is append-only, so "what existed at the snapshot"
     is a {!History_store.boundary} bounds check per record — a
     concurrent statement's pushes (which may land in the free tail of a
     pre-boundary page under the clustered policy) are simply out of
     bounds, no lock needed;
   - the primary store answers through the transaction-time window at
     the boundary stamp: versions written by later statements carry a
     later transaction-start and are refuted by value.

   A statement later than the boundary is therefore never half-observed:
   its history pushes are out of bounds and its primary appends are
   refuted.  In-place primary churn (replace/delete overwriting the very
   slot a reader is about to visit) is the one motion a bounds check
   cannot fence — those statements serialize against snapshot readers at
   the session layer, the same caveat class as DDL in the engine. *)

type boundary = { b_stamp : Chronon.t; b_history : History_store.boundary }

let boundary t ~at = { b_stamp = at; b_history = History_store.boundary t.history }
let boundary_stamp b = b.b_stamp

let snapshot_scan t b f =
  let window =
    {
      Tdb_storage.Time_fence.transaction = Some (Period.at b.b_stamp);
      valid = None;
    }
  in
  Cursor.iter
    (Relation_file.cursor ~window t.primary Relation_file.Full_scan)
    (fun _ r -> f (decode_record t r));
  Cursor.iter
    (History_store.as_of_cursor t.history ~at:b.b_stamp)
    (fun tid r ->
      if History_store.within b.b_history tid then f (decode_record t r))

(* Access-path conformance: the two-level store answers the same three
   questions as the flat access methods, spanning both levels.  Keyed
   probes use the primary store's organization, then filter a history
   scan on the key read straight from the record bytes (history versions
   of one tuple keep its key). *)
module Access = struct
  type file = t

  let scan_cursor = scan_cursor

  let key_of_record t =
    let ty = (Schema.attr t.schema t.key_index).Schema.ty in
    let off = Relation_file.attr_offset t.schema t.key_index in
    fun record -> Value.decode ty record off

  let lookup_cursor ?window t key =
    let key_of = key_of_record t in
    Cursor.concat
      [
        Relation_file.cursor ?window t.primary (Relation_file.Key_lookup key);
        Cursor.filtered
          (History_store.scan_cursor ?window t.history)
          ~keep:(fun record -> Value.equal (key_of record) key);
      ]

  let range_cursor ?window t ~lo ~hi =
    let key_of = key_of_record t in
    let in_range k =
      (match lo with Some l -> Value.compare l k <= 0 | None -> true)
      && match hi with Some h -> Value.compare k h <= 0 | None -> true
    in
    Cursor.concat
      [
        Relation_file.cursor ?window t.primary (Relation_file.Key_range { lo; hi });
        Cursor.filtered
          (History_store.scan_cursor ?window t.history)
          ~keep:(fun record -> in_range (key_of record));
      ]
end

let fetch_current t tid = Relation_file.read t.primary tid

let current_tids t =
  let acc = ref [] in
  Relation_file.scan t.primary (fun tid tu -> acc := (tid, tu) :: !acc);
  List.rev !acc

let history_tids t =
  let acc = ref [] in
  History_store.iter t.history (fun tid tuple_bytes ->
      acc := (tid, Tuple.decode t.schema tuple_bytes 0) :: !acc);
  List.rev !acc

let attach_index t ~name ~attr ~structure =
  if attr < 0 || attr >= Schema.user_arity t.schema then
    invalid_arg "Two_level_store.attach_index: attribute out of range";
  let key_type = (Schema.attr t.schema attr).Schema.ty in
  let entries_of tids =
    List.map (fun (tid, tu) -> (tu.(attr), tid)) tids
  in
  let ix =
    {
      ix_attr = attr;
      current_ix =
        Secondary_index.build ~structure ~key_type (entries_of (current_tids t));
      history_ix =
        Secondary_index.build ~structure ~key_type (entries_of (history_tids t));
    }
  in
  Hashtbl.replace t.indexes name ix

let find_index t name =
  match Hashtbl.find_opt t.indexes name with
  | Some ix -> ix
  | None -> raise Not_found

let indexed_lookup t ~name key f =
  let ix = find_index t name in
  List.iter
    (fun tid -> f (fetch_current t tid))
    (Secondary_index.lookup ix.current_ix key)

let index_stats t ~name ~current =
  let ix = find_index t name in
  let which = if current then ix.current_ix else ix.history_ix in
  (Secondary_index.entry_count which, Secondary_index.npages which)

let io t =
  Io_stats.add
    (Io_stats.snapshot (Relation_file.stats t.primary))
    (Io_stats.snapshot t.history_stats)

let reset_io t =
  Buffer_pool.invalidate (Relation_file.pool t.primary);
  Io_stats.reset (Relation_file.stats t.primary);
  Buffer_pool.invalidate t.history_pool;
  Io_stats.reset t.history_stats
