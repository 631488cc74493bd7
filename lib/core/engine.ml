module Schema = Tdb_relation.Schema
module Tuple = Tdb_relation.Tuple
module Value = Tdb_relation.Value
module Attr_type = Tdb_relation.Attr_type
module Relation_file = Tdb_storage.Relation_file
module Buffer_pool = Tdb_storage.Buffer_pool
module Io_stats = Tdb_storage.Io_stats
module Chronon = Tdb_time.Chronon
module Clock = Tdb_time.Clock
module Ast = Tdb_tquel.Ast
module Parser = Tdb_tquel.Parser
module Semck = Tdb_tquel.Semck
module Executor = Tdb_query.Executor
module Update_executor = Tdb_query.Update_executor
module Plan = Tdb_query.Plan
module Metric = Tdb_obs.Metric
module Trace = Tdb_obs.Trace
module Json = Tdb_obs.Json
module Statement_log = Tdb_obs.Statement_log
module Pretty = Tdb_tquel.Pretty

type outcome =
  | Rows of {
      schema : Schema.t;
      tuples : Tuple.t list;
      io : Executor.io_summary;
      plan : Plan.t;
      trace : Trace.node option;
      parallel : string;
      workers : int;
    }
  | Stored of {
      relation : string;
      count : int;
      io : Executor.io_summary;
      plan : Plan.t;
      trace : Trace.node option;
      parallel : string;
      workers : int;
    }
  | Modified of {
      matched : int;
      inserted : int;
      trace : Trace.node option;
      workers : int;
    }
  | Ack of string

let ( let* ) = Result.bind

(* Statements are serialized: parallelism lives {e inside} one statement
   (scan fan-out across domains), never across statements.  The lock is
   what lets concurrent callers (the stress test, a future server loop)
   share one engine while the executor's fold-on-join metric accounting
   stays attributable to a single statement. *)
let stmt_lock = Mutex.create ()

let serialized f =
  Mutex.lock stmt_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock stmt_lock) f

let sources_of db =
  List.filter_map
    (fun (var, rel_name) ->
      Option.map
        (fun rel -> { Executor.var; rel })
        (Database.find_relation db rel_name))
    (Database.ranges db)

let source_for db var =
  match Database.find_range db var with
  | None -> Error (Printf.sprintf "tuple variable %S has no range statement" var)
  | Some rel_name -> (
      match Database.find_relation db rel_name with
      | None -> Error (Printf.sprintf "relation %S does not exist" rel_name)
      | Some rel -> Ok { Executor.var; rel })

(* Query-class failures become [Error] results: the statement was bad, the
   database is fine.  Corruption / Io / Internal errors propagate as
   [Tdb_error.Error] so the boundary (CLI, bench) can stop with a
   class-specific exit code instead of misreporting storage damage as a
   query problem. *)
let run_protected f =
  match f () with
  | v -> Ok v
  | exception Executor.Execution_error msg -> Error msg
  | exception Update_executor.Execution_error msg -> Error msg
  | exception Tdb_query.Eval.Eval_error msg -> Error msg
  | exception Invalid_argument msg -> Error msg
  | exception Tdb_error.Error (Tdb_error.Query, msg) -> Error msg

(* --- copy: a simple tab-separated batch format over all attributes --- *)

let copy_into db rel path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let count = ref 0 in
      Relation_file.scan rel (fun _ tuple ->
          let fields =
            Array.to_list (Array.map Value.to_string tuple)
          in
          output_string oc (String.concat "\t" fields ^ "\n");
          incr count);
      ignore db;
      !count)

let parse_field ~now ty s =
  match ty with
  | Attr_type.I1 | I2 | I4 -> (
      match int_of_string_opt s with
      | Some n -> Ok (Value.Int n)
      | None -> Error (Printf.sprintf "bad integer %S" s))
  | F4 | F8 -> (
      match float_of_string_opt s with
      | Some f -> Ok (Value.Float f)
      | None -> Error (Printf.sprintf "bad float %S" s))
  | C _ -> Ok (Value.Str s)
  | Time -> Result.map (fun t -> Value.Time t) (Chronon.parse ~now s)

let copy_from db rel path =
  let schema = Relation_file.schema rel in
  let now = Database.now db in
  if not (Sys.file_exists path) then Error (Printf.sprintf "no such file %S" path)
  else begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let arity = Schema.arity schema in
        let line_no = ref 0 in
        let rec go count =
          match input_line ic with
          | exception End_of_file -> Ok count
          | line when String.trim line = "" -> go count
          | line -> (
              incr line_no;
              let fields = String.split_on_char '\t' line in
              if List.length fields <> arity then
                Error
                  (Printf.sprintf "line %d: expected %d fields, found %d"
                     !line_no arity (List.length fields))
              else begin
                let tuple = Array.make arity (Value.Int 0) in
                let rec fill i = function
                  | [] -> Ok ()
                  | f :: rest -> (
                      match
                        parse_field ~now (Schema.attr schema i).Schema.ty f
                      with
                      | Ok v ->
                          tuple.(i) <- v;
                          fill (i + 1) rest
                      | Error e ->
                          Error (Printf.sprintf "line %d: %s" !line_no e))
                in
                match fill 0 fields with
                | Error e -> Error e
                | Ok () ->
                    ignore (Relation_file.insert rel tuple);
                    go (count + 1)
              end)
        in
        go 0)
  end

(* --- statement dispatch --- *)

(* A displayed retrieve, collected into [Rows]; the serialized and the
   snapshot paths share it. *)
let displayed_retrieve ~config ~now ~sources r =
  run_protected (fun () ->
      let tuples = ref [] in
      let outcome =
        Executor.run_retrieve ~config ~now ~sources r
          ~on_tuple:(fun t -> tuples := t :: !tuples)
      in
      Rows
        {
          schema = outcome.Executor.schema;
          tuples = List.rev !tuples;
          io = outcome.Executor.io;
          plan = outcome.Executor.plan;
          trace = outcome.Executor.trace;
          parallel = outcome.Executor.parallel;
          workers = outcome.Executor.workers;
        })

let modified (c : Update_executor.counts) =
  Modified
    {
      matched = c.matched;
      inserted = c.inserted;
      trace = c.trace;
      workers = c.workers;
    }

let execute_checked ~config db stmt =
  match (stmt : Ast.statement) with
  | Ast.Range { var; rel } ->
      let* () = Database.set_range db ~var ~rel in
      Ok (Ack (Printf.sprintf "range of %s is %s" var rel))
  | Ast.Create c ->
      let db_type = Ast.db_type_of_create c in
      let* attrs =
        List.fold_left
          (fun acc (name, ty) ->
            let* acc = acc in
            let* ty = Attr_type.of_string ty in
            Ok ({ Schema.name; ty } :: acc))
          (Ok []) c.attrs
      in
      let* schema = Schema.create ~db_type (List.rev attrs) in
      let* _rel = Database.create_relation db ~name:c.rel schema in
      Ok (Ack (Printf.sprintf "created %s relation %s"
                 (Tdb_relation.Db_type.to_string db_type) c.rel))
  | Ast.Destroy name ->
      let* () = Database.destroy_relation db name in
      Ok (Ack (Printf.sprintf "destroyed %s" name))
  | Ast.Modify m ->
      let* rel =
        match Database.find_relation db m.rel with
        | Some r -> Ok r
        | None -> Error (Printf.sprintf "relation %S does not exist" m.rel)
      in
      let schema = Relation_file.schema rel in
      let fillfactor = Option.value m.fillfactor ~default:100 in
      let* org =
        match m.organization with
        | Ast.Org_heap -> Ok Relation_file.Heap
        | Ast.Org_hash | Ast.Org_isam -> (
            match m.on_attr with
            | None -> Error "hash and isam need a key attribute"
            | Some attr -> (
                match Schema.index_of schema attr with
                | None ->
                    Error (Printf.sprintf "no attribute %S in %s" attr m.rel)
                | Some key_attr ->
                    Ok
                      (match m.organization with
                      | Ast.Org_hash -> Relation_file.Hash { key_attr; fillfactor }
                      | Ast.Org_isam -> Relation_file.Isam { key_attr; fillfactor }
                      | Ast.Org_heap -> assert false)))
      in
      let* () = Database.modify_relation db m.rel org in
      Ok (Ack (Printf.sprintf "modified %s to %s" m.rel
                 (Relation_file.organization_to_string org)))
  | Ast.Copy c -> (
      let* rel =
        match Database.find_relation db c.rel with
        | Some r -> Ok r
        | None -> Error (Printf.sprintf "relation %S does not exist" c.rel)
      in
      match c.direction with
      | Ast.Copy_into ->
          let count = copy_into db rel c.path in
          Ok (Ack (Printf.sprintf "copied %d tuples into %s" count c.path))
      | Ast.Copy_from ->
          let* count = copy_from db rel c.path in
          Database.sync db;
          Ok (Ack (Printf.sprintf "copied %d tuples from %s" count c.path)))
  | Ast.Retrieve r -> (
      let now = Database.now db in
      let sources = sources_of db in
      match r.into with
      | None -> displayed_retrieve ~config ~now ~sources r
      | Some into_name ->
          let* result_schema =
            run_protected (fun () -> Executor.result_schema ~sources r)
          in
          let* target = Database.create_relation db ~name:into_name result_schema in
          run_protected (fun () ->
              let outcome =
                Executor.run_retrieve ~config ~now ~sources r
                  ~on_tuple:(fun t -> ignore (Relation_file.insert target t))
              in
              Buffer_pool.flush (Relation_file.pool target);
              Database.sync db;
              let stored =
                Io_stats.snapshot (Relation_file.stats target)
              in
              Stored
                {
                  relation = into_name;
                  count = outcome.Executor.count;
                  io =
                    {
                      Executor.input_reads = outcome.Executor.io.Executor.input_reads;
                      output_writes =
                        outcome.Executor.io.Executor.output_writes
                        + stored.Io_stats.writes;
                    };
                  plan = outcome.Executor.plan;
                  trace = outcome.Executor.trace;
                  parallel = outcome.Executor.parallel;
                  workers = outcome.Executor.workers;
                }))
  | Ast.Append a ->
      let* rel =
        match Database.find_relation db a.rel with
        | Some r -> Ok r
        | None -> Error (Printf.sprintf "relation %S does not exist" a.rel)
      in
      let now = Clock.tick (Database.clock db) in
      let sources = sources_of db in
      run_protected (fun () ->
          modified (Update_executor.run_append ~config ~now ~rel ~sources a))
  | Ast.Delete d ->
      let* source = source_for db d.var in
      let now = Clock.tick (Database.clock db) in
      run_protected (fun () ->
          modified (Update_executor.run_delete ~now ~source d))
  | Ast.Replace r ->
      let* source = source_for db r.var in
      let now = Clock.tick (Database.clock db) in
      run_protected (fun () ->
          modified (Update_executor.run_replace ~now ~source r))

let statement_kind = function
  | Ast.Range _ -> "range"
  | Ast.Create _ -> "create"
  | Ast.Destroy _ -> "destroy"
  | Ast.Modify _ -> "modify"
  | Ast.Copy _ -> "copy"
  | Ast.Retrieve _ -> "retrieve"
  | Ast.Append _ -> "append"
  | Ast.Delete _ -> "delete"
  | Ast.Replace _ -> "replace"

(* Does this statement write stored pages?  These run inside a journal
   statement so a crash mid-way rolls their page writes back to the
   statement boundary.  Catalog-only statements (range, create, destroy)
   rely on the atomic catalog replacement instead. *)
let mutates = function
  | Ast.Append _ | Ast.Delete _ | Ast.Replace _ | Ast.Modify _ -> true
  | Ast.Copy { direction = Ast.Copy_from; _ } -> true
  | Ast.Retrieve { into = Some _; _ } -> true
  | Ast.Range _ | Ast.Create _ | Ast.Destroy _
  | Ast.Copy { direction = Ast.Copy_into; _ }
  | Ast.Retrieve { into = None; _ } ->
      false

(* The one classification the session layer routes on: a read-only
   statement touches neither stored pages nor the catalog, so a session
   can run it against a pinned snapshot with no lock held.  Note this is
   strictly narrower than [not (mutates stmt)]: range/create/destroy and
   [copy into] don't write pages, but they read or change state a
   snapshot doesn't pin (catalog, the filesystem), so they stay on the
   serialized path. *)
let read_only = function
  | Ast.Retrieve { into = None; _ } -> true
  | Ast.Range _ | Ast.Create _ | Ast.Destroy _ | Ast.Modify _ | Ast.Copy _
  | Ast.Retrieve { into = Some _; _ }
  | Ast.Append _ | Ast.Delete _ | Ast.Replace _ ->
      false

let isolation_label ?epoch stmt =
  match epoch with
  | Some e when read_only stmt -> Printf.sprintf "snapshot@%d" e
  | _ -> "serialized (writer)"

(* Bracket a mutating statement with the journal's begin/commit.  Commit
   happens on any normal return — including [Error]: a failed statement
   may already have made page writes (the executors have no undo of
   their own), and those in-memory effects must stay durable so the
   stored state matches what a reader of this session sees.  Exceptions
   (injected crashes, real I/O failures) skip the commit deliberately:
   recovery rolls the half-statement back. *)
let execute_journaled ~config db stmt =
  if mutates stmt then begin
    Database.begin_statement db;
    let result = execute_checked ~config db stmt in
    Database.commit_statement db;
    result
  end
  else execute_checked ~config db stmt

let outcome_trace = function
  | Rows { trace; _ } | Stored { trace; _ } | Modified { trace; _ } -> trace
  | Ack _ -> None

let outcome_rows = function
  | Rows { tuples; _ } -> Some (List.length tuples)
  | Stored { count; _ } -> Some count
  | Modified { inserted; _ } -> Some inserted
  | Ack _ -> None

let outcome_workers = function
  | Rows { workers; _ } | Stored { workers; _ } | Modified { workers; _ } ->
      workers
  | Ack _ -> 1

(* Registered elsewhere (journal, buffer pool) at module init; looking
   them up by name here avoids new cross-layer hooks just to read them. *)
let journal_bytes_counter = Metric.counter "tdb_journal_bytes_total"
let pool_hits_counter = Metric.counter "tdb_pool_hits_total"
let pool_misses_counter = Metric.counter "tdb_pool_misses_total"

(* One JSONL record per statement, emitted while the statement lock is
   still held so records are totally ordered.  The deltas lean on the
   raw page counters ([Database.total_io]) and the registered journal
   counter; when the log is off this is a single branch. *)
let outcome_fields result =
  match result with
  | Ok o ->
      ( (match o with
        | Rows _ -> "rows"
        | Stored _ -> "stored"
        | Modified _ -> "modified"
        | Ack _ -> "ack"),
        outcome_rows o,
        None )
  | Error e -> ("error", None, Some e)

let log_statement db stmt ~t0 ~io0 ~jb0 ?id ?session ?epoch result =
  let io1 = Database.total_io db in
  let outcome, rows, error = outcome_fields result in
  Statement_log.log
    {
      Statement_log.id;
      session;
      epoch;
      kind = statement_kind stmt;
      text = Pretty.statement stmt;
      outcome;
      error;
      rows;
      latency_s = Metric.now_s () -. t0;
      reads = io1.Io_stats.reads - io0.Io_stats.reads;
      writes = io1.Io_stats.writes - io0.Io_stats.writes;
      journal_bytes = Metric.count journal_bytes_counter - jb0;
    }

let execute_serialized ?(config = Executor.default_config) ?(trace = false) db
    ?session ?epoch ?log_id stmt =
  serialized @@ fun () ->
  let logging = Statement_log.enabled () in
  let t0 = if logging then Metric.now_s () else 0.0 in
  let io0 = if logging then Database.total_io db else Io_stats.zero in
  let jb0 = if logging then Metric.count journal_bytes_counter else 0 in
  let run () =
    if trace then Trace.traced (fun () -> execute_journaled ~config db stmt)
    else execute_journaled ~config db stmt
  in
  let result =
    let* () = Semck.check_statement (Database.semck_env db) stmt in
    if not (Metric.enabled ()) then run ()
    else begin
      let kind = statement_kind stmt in
      Metric.incr
        (Metric.counter ~labels:[ ("kind", kind) ] "tdb_engine_statements_total");
      let t0 = Metric.now_s () in
      let result = run () in
      Metric.observe
        (Metric.histogram ~labels:[ ("kind", kind) ]
           "tdb_engine_statement_seconds")
        (Metric.now_s () -. t0);
      result
    end
  in
  if logging then log_statement db stmt ~t0 ~io0 ~jb0 ?id:log_id ?session ?epoch result;
  result

let execute_statement ?config ?trace db stmt =
  execute_serialized ?config ?trace db stmt

(* --- snapshot execution (the session layer's lock-free read path) ---

   Runs a read-only retrieve against an explicit snapshot: the caller
   supplies the pinned timestamp [now] (queries see exactly the state as
   of it — post-snapshot appends carry later transaction times and are
   refuted by value), the reader-view [sources], and a semantic-check
   environment built from the published commit record rather than the
   live catalog.  No engine lock is taken; any number of these run
   concurrently with each other and with one serialized writer.

   The statement compiles with one worker ([snapshot_config]): readers
   on several domains never fan out into nested domain spawns.  The
   caller (the session layer) supplies private reader views as sources,
   so I/O accounting never races the shared pools. *)

let snapshot_config (config : Executor.config) = { config with workers = 1 }

(* Pre-registered at module init: snapshot readers must never touch the
   metric registry at runtime (find-or-register walks a shared list
   unlocked); these are the same series the serialized path looks up by
   name, so single-session counts land in the same place. *)
let retrieve_statements_counter =
  Metric.counter ~labels:[ ("kind", "retrieve") ] "tdb_engine_statements_total"

let retrieve_seconds_histogram =
  Metric.histogram ~labels:[ ("kind", "retrieve") ]
    "tdb_engine_statement_seconds"

let execute_snapshot ~config ?(trace = false) ~now ~sources ~semck_env ~epoch
    ?session ?log_id stmt =
  match (stmt : Ast.statement) with
  | Ast.Retrieve ({ into = None; _ } as r) ->
      let logging = Statement_log.enabled () in
      let metrics = Metric.enabled () in
      let t0 = if logging || metrics then Metric.now_s () else 0.0 in
      let result =
        let* () = Semck.check_statement semck_env stmt in
        if metrics then Metric.incr retrieve_statements_counter;
        let run () =
          displayed_retrieve ~config:(snapshot_config config) ~now ~sources r
        in
        let result = if trace then Trace.traced run else run () in
        if metrics then
          Metric.observe retrieve_seconds_histogram (Metric.now_s () -. t0);
        result
      in
      if logging then begin
        let outcome, rows, error = outcome_fields result in
        (* The snapshot path charges the outcome's own I/O summary:
           [Database.total_io] sums the shared pools, which concurrent
           writers are moving. *)
        let reads =
          match result with
          | Ok (Rows { io; _ }) -> io.Executor.input_reads
          | _ -> 0
        in
        Statement_log.log
          {
            Statement_log.id = log_id;
            session;
            epoch = Some epoch;
            kind = statement_kind stmt;
            text = Pretty.statement stmt;
            outcome;
            error;
            rows;
            latency_s = Metric.now_s () -. t0;
            reads;
            writes = 0;
            journal_bytes = 0;
          }
      end;
      result
  | stmt ->
      Error
        (Printf.sprintf
           "%s is not read-only: snapshot sessions route it to the writer"
           (statement_kind stmt))

(* The plan a retrieve would run, without running it (the CLI's
   [\explain]): the statement's compiled operator tree, rendered.  Fence
   refinements show which time dimensions the storage layer will prune
   on; the operators carry the same labels the trace spans use. *)
let explain ?(config = Executor.default_config) ?epoch db src =
  let* stmt = Parser.parse_statement src in
  let* () = Semck.check_statement (Database.semck_env db) stmt in
  let isolation =
    Printf.sprintf "isolation: %s" (isolation_label ?epoch stmt)
  in
  match stmt with
  | Ast.Retrieve r ->
      (* A read explained at a session's snapshot compiles as the
         snapshot path would run it. *)
      let config =
        if epoch <> None && read_only stmt then snapshot_config config
        else config
      in
      run_protected (fun () ->
          Executor.explain
            (Executor.compile ~config ~now:(Database.now db)
               ~sources:(sources_of db) r)
          ^ "\n" ^ isolation)
  | stmt ->
      Ok (Printf.sprintf "%s: no plan (only retrieve statements are planned)\n%s"
            (statement_kind stmt) isolation)

(* --- explain analyze: run the statement, report the executed plan --- *)

type analysis = {
  a_outcome : outcome;
  a_kind : string;
  a_text : string;
  a_wall_s : float;
  a_hits : int;  (** buffer-pool hits during the statement *)
  a_misses : int;  (** buffer-pool misses during the statement *)
  a_journal_bytes : int;
  a_workers : int;
  a_parallel : string option;
  a_isolation : string;  (** "snapshot@N" or "serialized (writer)" *)
}

(* Execute one statement with its span tree requested, and capture the
   counter deltas the trace tree cannot carry (buffer hits/misses and
   journal bytes are global registered counters, not per-span).  The
   trace tree itself rides in the outcome; for parallel scans it holds
   one child span per partition with that worker's busy time, pages and
   rows (see [Trace.note_partition]).  [a_workers] is the width the
   statement compiled with, as its outcome reports it. *)
let analyze_core ~isolation stmt run =
  let h0 = Metric.count pool_hits_counter in
  let m0 = Metric.count pool_misses_counter in
  let jb0 = Metric.count journal_bytes_counter in
  let t0 = Metric.monotonic_s () in
  let* o = run () in
  let wall_s = Metric.monotonic_s () -. t0 in
  Ok
    {
      a_outcome = o;
      a_kind = statement_kind stmt;
      a_text = Pretty.statement stmt;
      a_wall_s = wall_s;
      a_hits = Metric.count pool_hits_counter - h0;
      a_misses = Metric.count pool_misses_counter - m0;
      a_journal_bytes = Metric.count journal_bytes_counter - jb0;
      a_workers = outcome_workers o;
      a_parallel =
        (match o with
        | Rows { parallel; _ } | Stored { parallel; _ } -> Some parallel
        | Modified _ | Ack _ -> None);
      a_isolation = isolation;
    }

let analyze_statement ?(config = Executor.default_config) db stmt =
  analyze_core ~isolation:(isolation_label stmt) stmt (fun () ->
      execute_statement ~config ~trace:true db stmt)

(* [explain analyze] on a session's snapshot: the statement executes on
   the snapshot path (no lock), traced on whichever domain runs it; the
   sources are private reader views. *)
let analyze_snapshot ~config ~now ~sources ~semck_env ~epoch ?session ?log_id
    stmt =
  analyze_core ~isolation:(isolation_label ~epoch stmt) stmt (fun () ->
      execute_snapshot ~config ~trace:true ~now ~sources ~semck_env ~epoch
        ?session ?log_id stmt)

let analyze ?config db src =
  let* stmt = Parser.parse_statement src in
  analyze_statement ?config db stmt

let render_analysis a =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "explain analyze (%s)\n" a.a_kind);
  (match outcome_trace a.a_outcome with
  | Some t -> Buffer.add_string buf (Trace.render t)
  | None ->
      Buffer.add_string buf "(no operator tree for this statement)\n");
  (match a.a_outcome with
  | Ack msg -> Buffer.add_string buf (Printf.sprintf "ack: %s\n" msg)
  | _ -> ());
  let rows =
    match outcome_rows a.a_outcome with
    | Some r -> Printf.sprintf "; rows: %d" r
    | None -> ""
  in
  Buffer.add_string buf
    (Printf.sprintf "wall: %.2f ms; workers: %d%s\n" (1000.0 *. a.a_wall_s)
       a.a_workers rows);
  (match a.a_parallel with
  | Some p -> Buffer.add_string buf (p ^ "\n")
  | None -> ());
  Buffer.add_string buf (Printf.sprintf "isolation: %s\n" a.a_isolation);
  Buffer.add_string buf
    (Printf.sprintf "buffer: %d hits, %d misses; journal: %d bytes\n" a.a_hits
       a.a_misses a.a_journal_bytes);
  Buffer.contents buf

let analysis_to_json a =
  Json.Obj
    [
      ("statement", Json.Str a.a_text);
      ("kind", Json.Str a.a_kind);
      ("wall_s", Json.Num a.a_wall_s);
      ("workers", Json.int a.a_workers);
      ( "parallel",
        match a.a_parallel with Some p -> Json.Str p | None -> Json.Null );
      ("isolation", Json.Str a.a_isolation);
      ( "rows",
        match outcome_rows a.a_outcome with
        | Some r -> Json.int r
        | None -> Json.Null );
      ( "buffer",
        Json.Obj
          [ ("hits", Json.int a.a_hits); ("misses", Json.int a.a_misses) ] );
      ("journal_bytes", Json.int a.a_journal_bytes);
      ( "tree",
        match outcome_trace a.a_outcome with
        | Some t -> Trace.to_json t
        | None -> Json.Null );
    ]

let execute ?config db src =
  let* stmts = Parser.parse_program src in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest ->
        let* o = execute_statement ?config db s in
        go (o :: acc) rest
  in
  go [] stmts

let execute_one ?config db src =
  let* stmt = Parser.parse_statement src in
  execute_statement ?config db stmt

(* --- result formatting --- *)

let format_rows ?(max_rows = 50) schema tuples =
  let attrs = Schema.all_attrs schema in
  let headers = Array.map (fun a -> a.Schema.name) attrs in
  let render_value v =
    match v with
    | Value.Time t -> Chronon.to_string t
    | v -> Value.to_string v
  in
  let shown = List.filteri (fun i _ -> i < max_rows) tuples in
  let rows = List.map (fun t -> Array.map render_value t) shown in
  let widths =
    Array.mapi
      (fun i h ->
        List.fold_left
          (fun w row -> max w (String.length row.(i)))
          (String.length h) rows)
      headers
  in
  let line c =
    "+"
    ^ String.concat "+"
        (Array.to_list (Array.map (fun w -> String.make (w + 2) c) widths))
    ^ "+"
  in
  let render_row cells =
    "|"
    ^ String.concat "|"
        (Array.to_list
           (Array.mapi
              (fun i c -> Printf.sprintf " %-*s " widths.(i) c)
              cells))
    ^ "|"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (line '-');
  Buffer.add_char buf '\n';
  Buffer.add_string buf (render_row headers);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (line '-');
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      Buffer.add_string buf (render_row r);
      Buffer.add_char buf '\n')
    rows;
  Buffer.add_string buf (line '-');
  let total = List.length tuples in
  if total > max_rows then
    Buffer.add_string buf
      (Printf.sprintf "\n(%d of %d rows shown)" max_rows total)
  else Buffer.add_string buf (Printf.sprintf "\n(%d rows)" total);
  Buffer.contents buf
