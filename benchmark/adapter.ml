(* The only module of the benchmark that calls into the program.  Every
   engine entry point the benchmark depends on is reached from here, so
   the API surface a change must keep is the list in [api] below; the
   README repeats it and a test keeps the two equal.

   Statements go through the session layer exactly as the CLI sends
   them: one [Db_instance] over one [Database], one [Session] per client,
   [Session.execute_one] per statement.  The traced run splits that call
   into its parse, semantic-check, plan and execute steps. *)

module Database = Tdb_core.Database
module Engine = Tdb_core.Engine
module Db_instance = Tdb_session.Db_instance
module Session = Tdb_session.Session
module Parser = Tdb_tquel.Parser
module Semck = Tdb_tquel.Semck
module Ast = Tdb_tquel.Ast
module Executor = Tdb_query.Executor
module Relation_file = Tdb_storage.Relation_file
module Page = Tdb_storage.Page
module Value = Tdb_relation.Value
module Chronon = Tdb_time.Chronon
module Metric = Tdb_obs.Metric

let api =
  [
    "Tdb_core.Database.create ?dir ~start";
    "Tdb_core.Database.close";
    "Tdb_core.Database.find_relation";
    "Tdb_session.Db_instance.of_database";
    "Tdb_session.Db_instance.commit";
    "Tdb_session.Session.open_";
    "Tdb_session.Session.close";
    "Tdb_session.Session.clock";
    "Tdb_session.Session.instance";
    "Tdb_session.Session.execute_one";
    "Tdb_session.Session.execute_statement";
    "Tdb_session.Session.semck_env_of";
    "Tdb_session.Session.sources_of";
    "Tdb_tquel.Parser.parse_statement";
    "Tdb_tquel.Semck.check_statement";
    "Tdb_query.Executor.plan_retrieve";
    "Tdb_core.Engine.outcome (Rows.tuples, Rows.io.input_reads, Modified.matched)";
    "Tdb_storage.Relation_file.reader_view";
    "Tdb_storage.Relation_file.scan";
    "Tdb_storage.Relation_file.npages";
    "Tdb_storage.Page.size";
    "Tdb_time.Chronon.parse_exn";
    "Tdb_time.Chronon.to_string";
    "Tdb_time.Chronon.of_seconds";
    "Tdb_time.Chronon.to_seconds";
    "Tdb_time.Chronon.forever";
    "Tdb_obs.Metric.counter";
    "Tdb_obs.Metric.count";
    "Tdb_obs.Metric.dump";
  ]

(* --- time values --- *)

let forever = Chronon.to_seconds Chronon.forever
let seconds_of_literal s = Chronon.to_seconds (Chronon.parse_exn s)
let literal_of_seconds t = Chronon.to_string (Chronon.of_seconds t)

(* --- databases and sessions --- *)

type db = { database : Database.t; inst : Db_instance.t }
type session = Session.t

let open_db ?dir ~start () =
  match Database.create ?dir ~start:(Chronon.of_seconds start) () with
  | Ok database -> { database; inst = Db_instance.of_database database }
  | Error e -> failwith ("cannot open database: " ^ e)

let close_db db = Database.close db.database
let session db name = Session.open_ ~name db.inst
let close_session = Session.close

(* The transaction-time stamp of the session's last statement: the
   snapshot a read pinned, or the commit a write published. *)
let clock s = Chronon.to_seconds (Session.clock s)

(* --- statements --- *)

type tuple = Value.t array

type outcome =
  | Rows of { tuples : tuple list; pages : int }
  | Modified of { matched : int }
  | Ack

let outcome_of = function
  | Ok (Engine.Rows { tuples; io; _ }) ->
      Ok (Rows { tuples; pages = io.Executor.input_reads })
  | Ok (Engine.Modified { matched; _ }) -> Ok (Modified { matched })
  | Ok (Engine.Stored _ | Engine.Ack _) -> Ok Ack
  | Error e -> Error e

let execute s text = outcome_of (Session.execute_one s text)

let int_field (t : tuple) i =
  match t.(i) with
  | Value.Int n -> n
  | Value.Time c -> Chronon.to_seconds c
  | Value.Str s -> Hashtbl.hash s
  | Value.Float f -> int_of_float f

(* The traced run's steps.  [semck] and [plan] repeat work the execute
   call does internally; the report labels their times as estimates. *)

type statement = Ast.statement

let parse text = Parser.parse_statement text

let semck s stmt =
  let c = Db_instance.commit (Session.instance s) in
  Semck.check_statement (Session.semck_env_of c) stmt

let plan s stmt =
  match stmt with
  | Ast.Retrieve r ->
      let c = Db_instance.commit (Session.instance s) in
      ignore (Executor.plan_retrieve ~sources:(Session.sources_of c) r)
  | _ -> ()

let execute_parsed s stmt = outcome_of (Session.execute_statement s stmt)

(* --- stored state --- *)

let page_bytes = Page.size

let relation db name =
  match Database.find_relation db.database name with
  | Some rel -> rel
  | None -> failwith ("no relation " ^ name)

(* Pages and every stored version of a relation, read through a private
   reader view. *)
let stored db name =
  let rel = relation db name in
  let tuples = ref [] in
  Relation_file.scan (Relation_file.reader_view rel) (fun _ t -> tuples := t :: !tuples);
  (Relation_file.npages rel, !tuples)

(* A cold sequential scan of a relation: a fresh reader view reads every
   page from disk.  Returns (pages, ns). *)
let cold_scan db name ~now_ns =
  let rel = relation db name in
  let view = Relation_file.reader_view rel in
  let t0 = now_ns () in
  Relation_file.scan view (fun _ _ -> ());
  (Relation_file.npages rel, now_ns () - t0)

(* --- engine counters --- *)

let counter = Metric.counter

type counters = {
  page_reads : int;
  page_writes : int;
  pool_hits : int;
  pool_misses : int;
  pool_evictions : int;
  prune_skipped : int;
  fence_checks : int;
  journal_bytes : int;
  journal_fsyncs : int;
  disk_fsyncs : int;
  tjoin_pairs : int;
  overflow_pages : int;
  writer_wait_s : float;
  writer_waits : int;
  chain_buckets : (float * int) list;
      (* (upper bound, cumulative count) of the chain-length histogram *)
}

let c_page_reads = counter "tdb_io_page_reads_total"
let c_writes_ev = counter ~labels:[ ("kind", "eviction") ] "tdb_io_page_writes_total"
let c_writes_sy = counter ~labels:[ ("kind", "sync") ] "tdb_io_page_writes_total"
let c_hits = counter "tdb_pool_hits_total"
let c_misses = counter "tdb_pool_misses_total"
let c_evictions = counter "tdb_pool_evictions_total"
let c_skipped = counter "tdb_prune_pages_skipped_total"
let c_checks = counter "tdb_prune_fence_checks_total"
let c_jbytes = counter "tdb_journal_bytes_total"
let c_jfsyncs = counter "tdb_journal_fsyncs_total"
let c_dfsyncs = counter "tdb_disk_fsyncs_total"
let c_pairs = counter "tdb_tjoin_candidate_pairs_total"
let c_overflow = counter "tdb_storage_overflow_pages_total"

let counters () =
  let wait_s = ref 0.0 and waits = ref 0 and chain = ref [] in
  List.iter
    (fun { Metric.name; labels; value } ->
      match (name, value) with
      | "tdb_session_writer_wait_seconds_sum", Metric.Float f -> wait_s := f
      | "tdb_session_writer_wait_seconds_count", Metric.Int n -> waits := n
      | "tdb_storage_chain_length_pages_bucket", Metric.Int n -> (
          match List.assoc_opt "le" labels with
          | Some le -> chain := (float_of_string le, n) :: !chain
          | None -> ())
      | _ -> ())
    (Metric.dump ());
  let n = Metric.count in
  {
    page_reads = n c_page_reads;
    page_writes = n c_writes_ev + n c_writes_sy;
    pool_hits = n c_hits;
    pool_misses = n c_misses;
    pool_evictions = n c_evictions;
    prune_skipped = n c_skipped;
    fence_checks = n c_checks;
    journal_bytes = n c_jbytes;
    journal_fsyncs = n c_jfsyncs;
    disk_fsyncs = n c_dfsyncs;
    tjoin_pairs = n c_pairs;
    overflow_pages = n c_overflow;
    writer_wait_s = !wait_s;
    writer_waits = !waits;
    chain_buckets = List.sort compare !chain;
  }
