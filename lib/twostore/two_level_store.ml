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
  key_index : int;
  tstart : int;
  tstop : int;
  valid_from : int;
  valid_to : int;
}

let primary t = t.primary
let history_pages t = History_store.npages t.history
let primary_pages t = Relation_file.npages t.primary

let create ?(name = "primary") ~schema ~organization ~clustered tuples =
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
  {
    schema;
    primary;
    history =
      History_store.create history_pool
        ~tuple_size:(Schema.tuple_size schema)
        ~clustered;
    history_stats;
    history_pool;
    heads = Hashtbl.create 1024;
    key_index;
    tstart = Option.get (Schema.transaction_start_index schema);
    tstop = Option.get (Schema.transaction_stop_index schema);
    valid_from = Option.get (Schema.valid_from_index schema);
    valid_to = Option.get (Schema.valid_to_index schema);
  }

let append t ~now tuple =
  let tuple = Array.copy tuple in
  tuple.(t.tstart) <- Value.Time now;
  tuple.(t.tstop) <- Value.Time Chronon.forever;
  ignore (Relation_file.insert t.primary tuple)

let m_history_appends =
  Tdb_obs.Metric.counter "tdb_twostore_history_appends_total"

let m_migrations = Tdb_obs.Metric.counter "tdb_twostore_migrations_total"

let push_history t ~cluster ~tuple ~prev =
  Tdb_obs.Metric.incr m_history_appends;
  History_store.push t.history ~cluster
    ~tuple:(Tuple.encode t.schema tuple)
    ~prev

(* Move the closing versions of [old_tuple] (at [tid]) into the history
   store: the superseded version (transaction time closed at [now]) and the
   "validity ended at now" version the temporal delete semantics insert. *)
let retire t ~now ~tid ~old_tuple =
  Tdb_obs.Metric.incr m_migrations;
  let cluster = old_tuple.(t.key_index) in
  let prev = Hashtbl.find_opt t.heads tid in
  let superseded = Tuple.set_time old_tuple t.tstop now in
  let head1 = push_history t ~cluster ~tuple:superseded ~prev in
  let terminated = Array.copy old_tuple in
  terminated.(t.valid_to) <- Value.Time now;
  terminated.(t.tstart) <- Value.Time now;
  terminated.(t.tstop) <- Value.Time Chronon.forever;
  push_history t ~cluster ~tuple:terminated ~prev:(Some head1)

let victims t key =
  let acc = ref [] in
  Relation_file.lookup t.primary key (fun tid tu -> acc := (tid, tu) :: !acc);
  !acc

let replace t ~now ~key update =
  let victims = victims t key in
  List.iter
    (fun (tid, old_tuple) ->
      let head = retire t ~now ~tid ~old_tuple in
      let fresh = Array.copy (update (Array.copy old_tuple)) in
      fresh.(t.valid_from) <- Value.Time now;
      fresh.(t.valid_to) <- Value.Time Chronon.forever;
      fresh.(t.tstart) <- Value.Time now;
      fresh.(t.tstop) <- Value.Time Chronon.forever;
      Relation_file.update t.primary tid fresh;
      Hashtbl.replace t.heads tid head)
    victims;
  List.length victims

let delete t ~now ~key =
  let victims = victims t key in
  List.iter
    (fun (tid, old_tuple) ->
      ignore (retire t ~now ~tid ~old_tuple);
      Relation_file.delete t.primary tid;
      Hashtbl.remove t.heads tid)
    victims;
  List.length victims

let current_lookup t key f =
  Relation_file.lookup t.primary key (fun _ tu -> f tu)

let current_scan t f = Relation_file.scan t.primary (fun _ tu -> f tu)

let decode_history t tuple_bytes = Tuple.decode t.schema tuple_bytes 0

let version_scan t key f =
  let heads = ref [] in
  Relation_file.lookup t.primary key (fun tid tu ->
      f tu;
      heads := Hashtbl.find_opt t.heads tid :: !heads);
  List.iter
    (fun head ->
      History_store.walk t.history ~head (fun _ tuple_bytes ->
          f (decode_history t tuple_bytes)))
    (List.rev !heads)

let scan_all t f =
  current_scan t f;
  History_store.iter t.history (fun _ tuple_bytes ->
      f (decode_history t tuple_bytes))

let fetch_current t tid = Relation_file.read t.primary tid

let current_tids t =
  let acc = ref [] in
  Relation_file.scan t.primary (fun tid tu -> acc := (tid, tu) :: !acc);
  List.rev !acc

let history_tids t =
  let acc = ref [] in
  History_store.iter t.history (fun tid tuple_bytes ->
      acc := (tid, decode_history t tuple_bytes) :: !acc);
  List.rev !acc

let io t =
  Io_stats.add
    (Io_stats.snapshot (Relation_file.stats t.primary))
    (Io_stats.snapshot t.history_stats)

let reset_io t =
  Buffer_pool.invalidate (Relation_file.pool t.primary);
  Io_stats.reset (Relation_file.stats t.primary);
  Buffer_pool.invalidate t.history_pool;
  Io_stats.reset t.history_stats
