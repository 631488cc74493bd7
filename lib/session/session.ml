(* A session: a handle onto a shared {!Db_instance} with its own logical
   clock and log attribution.

   The concurrency contract:

   - Read-only statements (displayed retrieves) resolve the published
     commit record once, at statement start, and then run with {e no
     lock held}: any number of them proceed concurrently with each
     other and ahead of the writer.  Their sources are private reader
     views (own 1-frame pool, own I/O counters) over the shared disks,
     and they compile with one worker, so a concurrent statement never
     fans out into nested domain spawns.

   - Everything else serializes through the instance's writer mutex
     (on top of the engine's own statement lock, which additionally
     serializes against direct [Engine] users), then publishes a fresh
     commit record so subsequent snapshots see it.

   The session's logical clock is the transaction-time stamp of the last
   snapshot it resolved (readers) or the last commit it published
   (writers); it is monotone because epochs are. *)

module Database = Tdb_core.Database
module Engine = Tdb_core.Engine
module Relation_file = Tdb_storage.Relation_file
module Chronon = Tdb_time.Chronon
module Schema = Tdb_relation.Schema
module Semck = Tdb_tquel.Semck
module Parser = Tdb_tquel.Parser
module Ast = Tdb_tquel.Ast
module Executor = Tdb_query.Executor
module Metric = Tdb_obs.Metric
module Statement_log = Tdb_obs.Statement_log

let ( let* ) = Result.bind

type t = {
  inst : Db_instance.t;
  name : string;
  mutable clock : Chronon.t;
  mutable last_epoch : int;
      (* the epoch the session's last statement pinned (readers) or
         published (writers) *)
  mutable is_open : bool;
}

let session_seq = Atomic.make 0

let open_ ?name inst =
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "s%d" (Atomic.fetch_and_add session_seq 1)
  in
  let n = 1 + Atomic.fetch_and_add (Db_instance.open_sessions inst) 1 in
  Metric.set_gauge Db_instance.open_sessions_gauge (float_of_int n);
  let c = Db_instance.commit inst in
  {
    inst;
    name;
    clock = c.Db_instance.stamp;
    last_epoch = c.Db_instance.epoch;
    is_open = true;
  }

let close t =
  if t.is_open then begin
    t.is_open <- false;
    let n = Atomic.fetch_and_add (Db_instance.open_sessions t.inst) (-1) - 1 in
    Metric.set_gauge Db_instance.open_sessions_gauge (float_of_int n)
  end

let name t = t.name
let clock t = t.clock
let instance t = t.inst

(* The semantic-check environment as of a commit record: closures over
   its immutable assoc lists, never the live catalog. *)
let semck_env_of (c : Db_instance.commit) =
  {
    Semck.find_relation =
      (fun rel_name ->
        Option.map
          (fun rel ->
            {
              Semck.schema = Relation_file.schema rel;
              db_type = Schema.db_type (Relation_file.schema rel);
            })
          (List.assoc_opt (Schema.norm_name rel_name) c.relations));
    find_range = (fun var -> List.assoc_opt (Schema.norm_name var) c.ranges);
  }

(* Private reader views for every ranged source of the commit. *)
let sources_of (c : Db_instance.commit) =
  List.filter_map
    (fun (var, rel_name) ->
      Option.map
        (fun rel -> { Executor.var; rel = Relation_file.reader_view rel })
        (List.assoc_opt rel_name c.relations))
    c.ranges

let log_id_for inst =
  if Statement_log.enabled () then Some (Db_instance.next_log_id inst)
  else None

(* Resolve the snapshot for a read-only statement and run [f] against it. *)
let with_snapshot t f =
  let c = Db_instance.commit t.inst in
  t.clock <- c.Db_instance.stamp;
  t.last_epoch <- c.Db_instance.epoch;
  if Metric.enabled () then
    Metric.incr Db_instance.snapshot_statements_counter;
  let result = f c in
  if Metric.enabled () then
    Metric.set_gauge Db_instance.snapshot_lag_gauge
      (float_of_int (Db_instance.epoch t.inst - c.Db_instance.epoch));
  result

(* Take the writer lock (timing the wait), run [f], publish the next
   commit record. *)
let with_writer t f =
  let metrics = Metric.enabled () in
  let w0 = if metrics then Metric.monotonic_s () else 0.0 in
  Mutex.lock (Db_instance.writer t.inst);
  Fun.protect
    ~finally:(fun () -> Mutex.unlock (Db_instance.writer t.inst))
    (fun () ->
      if metrics then begin
        Metric.observe Db_instance.writer_wait_histogram
          (Metric.monotonic_s () -. w0);
        Metric.incr Db_instance.serialized_statements_counter
      end;
      let epoch = Db_instance.epoch t.inst + 1 in
      let result = f ~epoch in
      Db_instance.publish t.inst;
      t.clock <- (Db_instance.commit t.inst).Db_instance.stamp;
      t.last_epoch <- epoch;
      result)

let execute_statement ?trace t stmt =
  let config = Db_instance.config t.inst in
  if Engine.read_only stmt then
    with_snapshot t (fun c ->
        Engine.execute_snapshot ~config ?trace ~now:c.Db_instance.stamp
          ~sources:(sources_of c) ~semck_env:(semck_env_of c)
          ~epoch:c.Db_instance.epoch ~session:t.name
          ?log_id:(log_id_for t.inst)
          stmt)
  else
    with_writer t (fun ~epoch ->
        Engine.execute_serialized ~config ?trace
          (Db_instance.database t.inst)
          ~session:t.name ~epoch
          ?log_id:(log_id_for t.inst)
          stmt)

let execute ?trace t src =
  let* stmts = Parser.parse_program src in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest ->
        let* o = execute_statement ?trace t s in
        go (o :: acc) rest
  in
  go [] stmts

let execute_one t src =
  let* stmt = Parser.parse_statement src in
  execute_statement t stmt

let explain t src =
  Engine.explain ~config:(Db_instance.config t.inst)
    ~epoch:(Db_instance.epoch t.inst)
    (Db_instance.database t.inst)
    src

(* [explain analyze] through the session: read-only statements execute
   on the snapshot path, traced on the calling domain; everything else
   analyzes under the writer lock and publishes, exactly as
   [execute_statement] would. *)
let analyze_statement t stmt =
  let config = Db_instance.config t.inst in
  if Engine.read_only stmt then
    with_snapshot t (fun c ->
        Engine.analyze_snapshot ~config ~now:c.Db_instance.stamp
          ~sources:(sources_of c) ~semck_env:(semck_env_of c)
          ~epoch:c.Db_instance.epoch ~session:t.name
          ?log_id:(log_id_for t.inst)
          stmt)
  else
    with_writer t (fun ~epoch:_ ->
        Engine.analyze_statement ~config (Db_instance.database t.inst) stmt)

let analyze t src =
  let* stmt = Parser.parse_statement src in
  analyze_statement t stmt

let epoch t = Db_instance.epoch t.inst
let pinned_epoch t = t.last_epoch
