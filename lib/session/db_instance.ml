(* The shared half of the engine after the session split: one database,
   one writer lock, one published commit record.

   The commit record is the heart of "MVCC for free".  Storage is
   append-only in transaction time — updates append new versions and
   stamp old ones, nothing is ever overwritten in place in a way that
   changes what a past timestamp sees — so a consistent snapshot needs
   no page versioning at all.  It is just:

   - [stamp]: the transaction-time instant the snapshot pins.  A reader
     evaluating a retrieve [as of stamp] sees exactly the statements
     committed at or before it; later appends carry later transaction
     times and are refuted by value.
   - [relations]/[ranges]: the catalog as of the commit, as immutable
     assoc lists, so readers never touch the live (mutable) catalog.

   Writers publish a fresh record with a single [Atomic.set] after
   flushing every buffer pool; readers pick it up with one [Atomic.get].
   The record itself is immutable, and OCaml's memory model makes the
   initializing stores of a freshly allocated immutable value visible to
   any domain that obtains the value through an atomic, so no further
   synchronization is needed.

   Publication happens after {e every} serialized statement, not only
   page-writing ones: catalog statements ([range of], [create],
   [destroy]) change what a reader should see even though they write no
   pages.

   The instance also holds the execution config its sessions' statements
   compile with (fan-out width, admission floor, temporal join,
   pruning); a snapshot read narrows it to one worker. *)

module Database = Tdb_core.Database
module Executor = Tdb_query.Executor
module Relation_file = Tdb_storage.Relation_file
module Chronon = Tdb_time.Chronon
module Metric = Tdb_obs.Metric

type commit = {
  epoch : int;
  stamp : Chronon.t;
  relations : (string * Relation_file.t) list;
  ranges : (string * string) list;
}

type t = {
  db : Database.t;
  config : Executor.config;
  writer : Mutex.t;
  commit : commit Atomic.t;
  log_seq : int Atomic.t;
      (* per-instance statement-log ids: gap-free and attributable even
         when several instances share one process *)
  open_sessions : int Atomic.t;
}

(* All session metrics are registered at module init: snapshot readers
   run with no lock held and must never call the registry's
   find-or-register (it walks a shared list unlocked). *)
let open_sessions_gauge = Metric.gauge "tdb_session_open_sessions"

let snapshot_statements_counter =
  Metric.counter ~labels:[ ("mode", "snapshot") ] "tdb_session_statements_total"

let serialized_statements_counter =
  Metric.counter
    ~labels:[ ("mode", "serialized") ]
    "tdb_session_statements_total"

let writer_wait_histogram = Metric.histogram "tdb_session_writer_wait_seconds"
let snapshot_lag_gauge = Metric.gauge "tdb_session_snapshot_lag"

let snapshot_of db ~epoch =
  {
    epoch;
    stamp = Database.now db;
    relations = Database.relations db;
    ranges = Database.ranges db;
  }

let of_database ?(config = Executor.default_config) db =
  (* Epoch 0 pins whatever the database held at instance creation; any
     dirty frames go down first so reader views (which read the disk)
     see every page. *)
  Database.flush_pools db;
  {
    db;
    config;
    writer = Mutex.create ();
    commit = Atomic.make (snapshot_of db ~epoch:0);
    log_seq = Atomic.make 0;
    open_sessions = Atomic.make 0;
  }

let database t = t.db
let config t = t.config
let writer t = t.writer
let open_sessions t = t.open_sessions
let commit t = Atomic.get t.commit
let epoch t = (Atomic.get t.commit).epoch
let next_log_id t = Atomic.fetch_and_add t.log_seq 1

(* Caller holds [t.writer]. *)
let publish t =
  Database.flush_pools t.db;
  Atomic.set t.commit (snapshot_of t.db ~epoch:((Atomic.get t.commit).epoch + 1))

(* Publish outside a statement (takes the writer lock itself): for
   out-of-band state changes snapshots should see, e.g. the CLI's
   [\advance] moving the clock. *)
let republish t =
  Mutex.lock t.writer;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.writer) (fun () -> publish t)
