(* The session layer: snapshot-isolated readers over one shared database
   instance (lib/session).

   Unit tests pin down the visibility rule — a snapshot resolves the
   published commit record at statement start, so writes that have not
   published an epoch (a writer "mid-statement") are invisible — and the
   statement-log / isolation-label plumbing.

   The concurrent oracle is the concurrency analogue of test_oracle: M
   writer domains replay a random history of appends/deletes/replaces
   through serialized sessions while N reader domains run lock-free
   snapshot retrieves; every reader result must equal a naive in-memory
   model evaluated at the stamp the reader pinned (no torn reads, no
   phantom epochs).  Failures name the seed; replay with
   TDB_ORACLE_SEED=<n>. *)

module Engine = Tdb_core.Engine
module Database = Tdb_core.Database
module Db_instance = Tdb_session.Db_instance
module Session = Tdb_session.Session
module Chronon = Tdb_time.Chronon
module Value = Tdb_relation.Value
module Json = Tdb_obs.Json
module Metric = Tdb_obs.Metric
module Statement_log = Tdb_obs.Statement_log
module Trace = Tdb_obs.Trace
module Parser = Tdb_tquel.Parser
module Executor = Tdb_query.Executor

let ok = function Ok v -> v | Error e -> Alcotest.failf "unexpected error: %s" e
let exec db src = ignore (ok (Engine.execute db src))

let seed =
  match Sys.getenv_opt "TDB_ORACLE_SEED" with
  | None -> 77031
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> n
      | None -> Alcotest.failf "TDB_ORACLE_SEED must be an integer, got %S" s)

(* --- helpers --- *)

let fresh_instance () =
  let db = ok (Database.create ()) in
  exec db
    {|create persistent tr (id = i4, amount = i4)
      range of t is tr|};
  (db, Db_instance.of_database db)

let rows_of = function
  | Engine.Rows { tuples; _ } ->
      List.sort compare
        (List.map
           (fun tu ->
             Array.to_list
               (Array.map
                  (function
                    | Value.Int n -> n
                    | v -> Alcotest.failf "int expected, got %s" (Value.to_string v))
                  tu))
           tuples)
  | _ -> Alcotest.fail "expected rows"

let session_rows s src = rows_of (ok (Session.execute_one s src))

let retrieve_all = "retrieve (t.id, t.amount)"

(* --- unit: snapshots pin the published epoch, not live state --- *)

let test_snapshot_pins_published_epoch () =
  let db, inst = fresh_instance () in
  let w = Session.open_ ~name:"w" inst in
  ignore (ok (Session.execute_one w "append to tr (id = 1, amount = 10)"));
  Alcotest.(check int) "one publish so far" 1 (Db_instance.epoch inst);
  let r = Session.open_ ~name:"r" inst in
  Alcotest.(check (list (list int)))
    "reader sees the published row"
    [ [ 1; 10 ] ]
    (session_rows r retrieve_all);
  (* A write that bypasses the session layer mutates the database but
     publishes no epoch: the instance is "mid-statement" as far as
     snapshots are concerned, and a reader opened now must see exactly
     the pre-statement epoch. *)
  ignore
    (ok
       (Engine.execute_serialized db
          (ok (Parser.parse_statement "append to tr (id = 2, amount = 20)"))));
  Alcotest.(check int) "no epoch published" 1 (Db_instance.epoch inst);
  let r2 = Session.open_ ~name:"r2" inst in
  Alcotest.(check (list (list int)))
    "unpublished write is invisible"
    [ [ 1; 10 ] ]
    (session_rows r2 retrieve_all);
  (* The next session write publishes; its stamp covers the earlier
     unpublished append too (its transaction time is in the past). *)
  ignore (ok (Session.execute_one w "append to tr (id = 3, amount = 30)"));
  Alcotest.(check int) "second publish" 2 (Db_instance.epoch inst);
  Alcotest.(check (list (list int)))
    "new snapshot sees everything committed"
    [ [ 1; 10 ]; [ 2; 20 ]; [ 3; 30 ] ]
    (session_rows r retrieve_all);
  Session.close r;
  Session.close r2;
  Session.close w;
  Database.close db

(* --- unit: an old commit record stays a consistent snapshot --- *)

let test_pinned_snapshot_is_stable () =
  let db, inst = fresh_instance () in
  let w = Session.open_ inst in
  ignore (ok (Session.execute_one w "append to tr (id = 1, amount = 10)"));
  let c1 = Db_instance.commit inst in
  ignore (ok (Session.execute_one w "append to tr (id = 2, amount = 20)"));
  ignore (ok (Session.execute_one w "delete t where t.id = 1"));
  (* Re-running against the old record must reproduce the old answer:
     the later append is refuted by value, the in-place delete stamp is
     in the snapshot's future. *)
  let sources = Session.sources_of c1 in
  let env = Session.semck_env_of c1 in
  let stmt = ok (Parser.parse_statement retrieve_all) in
  let o =
    ok
      (Engine.execute_snapshot ~config:(Db_instance.config inst)
         ~now:c1.Db_instance.stamp ~sources ~semck_env:env
         ~epoch:c1.Db_instance.epoch stmt)
  in
  Alcotest.(check (list (list int)))
    "old epoch still answers as of its stamp"
    [ [ 1; 10 ] ]
    (rows_of o);
  Alcotest.(check (list (list int)))
    "latest snapshot sees the delete"
    [ [ 2; 20 ] ]
    (session_rows w retrieve_all);
  Session.close w;
  Database.close db

(* --- unit: routing and labels --- *)

let test_snapshot_rejects_writes () =
  let db, inst = fresh_instance () in
  let c = Db_instance.commit inst in
  let stmt = ok (Parser.parse_statement "append to tr (id = 9, amount = 9)") in
  (match
     Engine.execute_snapshot ~config:(Db_instance.config inst)
       ~now:c.Db_instance.stamp
       ~sources:(Session.sources_of c)
       ~semck_env:(Session.semck_env_of c)
       ~epoch:c.Db_instance.epoch stmt
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "snapshot path accepted a mutating statement");
  Alcotest.(check bool) "read_only classification" false (Engine.read_only stmt);
  Alcotest.(check string)
    "writer label" "serialized (writer)"
    (Engine.isolation_label ~epoch:3 stmt);
  let r = ok (Parser.parse_statement retrieve_all) in
  Alcotest.(check string)
    "snapshot label" "snapshot@3"
    (Engine.isolation_label ~epoch:3 r);
  Alcotest.(check string)
    "no epoch means serialized" "serialized (writer)"
    (Engine.isolation_label r);
  Database.close db

let test_explain_and_analyze_isolation () =
  let db, inst = fresh_instance () in
  let s = Session.open_ inst in
  ignore (ok (Session.execute_one s "append to tr (id = 1, amount = 10)"));
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let plan = ok (Session.explain s retrieve_all) in
  Alcotest.(check bool) "explain names the snapshot epoch" true
    (contains plan "isolation: snapshot@1");
  let plan_w = ok (Session.explain s "append to tr (id = 2, amount = 2)") in
  Alcotest.(check bool) "explain names the writer path" true
    (contains plan_w "isolation: serialized (writer)");
  let a = ok (Session.analyze s retrieve_all) in
  Alcotest.(check string) "analysis isolation" "snapshot@1" a.Engine.a_isolation;
  Alcotest.(check bool) "analysis renders the isolation line" true
    (contains (Engine.render_analysis a) "isolation: snapshot@1");
  (match Engine.analysis_to_json a with
  | Json.Obj fields -> (
      match List.assoc_opt "isolation" fields with
      | Some (Json.Str "snapshot@1") -> ()
      | _ -> Alcotest.fail "analysis json carries no isolation")
  | _ -> Alcotest.fail "analysis json is not an object");
  let aw = ok (Session.analyze s "append to tr (id = 2, amount = 2)") in
  Alcotest.(check string)
    "writer analysis isolation" "serialized (writer)" aw.Engine.a_isolation;
  Alcotest.(check int) "analyze on the writer path published" 2
    (Session.epoch s);
  Session.close s;
  Database.close db

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* A snapshot read compiles with one worker, whatever the instance's
   config says: its [\explain] and its explain analyze agree on that
   width, and the writer path reports the configured one. *)
let test_snapshot_reports_one_worker () =
  let db = ok (Database.create ()) in
  exec db
    {|create persistent tr (id = i4, amount = i4)
      range of t is tr|};
  for i = 1 to 300 do
    exec db (Printf.sprintf "append to tr (id = %d, amount = %d)" i (i mod 7))
  done;
  let config = { Executor.default_config with workers = 4; floor = 0 } in
  let inst = Db_instance.of_database ~config db in
  let s = Session.open_ inst in
  let src = "retrieve (t.id) where t.amount = 3" in
  let plan = ok (Session.explain s src) in
  Alcotest.(check bool) "snapshot explain: workers=1" true
    (contains plan "parallel: off (workers=1)");
  let a = ok (Session.analyze s src) in
  Alcotest.(check int) "snapshot analyze: workers 1" 1 a.Engine.a_workers;
  Alcotest.(check bool) "snapshot analyze renders workers: 1" true
    (contains (Engine.render_analysis a) "workers: 1;");
  Alcotest.(check (option string)) "snapshot analyze ran inline"
    (Some "parallel: off (workers=1)") a.Engine.a_parallel;
  let plan_w = ok (Engine.explain ~config db src) in
  Alcotest.(check bool) "writer explain: 4 workers" true
    (contains plan_w "parallel: 4 workers");
  let aw = ok (Engine.analyze ~config db src) in
  Alcotest.(check int) "writer analyze: workers 4" 4 aw.Engine.a_workers;
  Alcotest.(check bool) "writer analyze fanned out" true
    (contains (Option.value aw.Engine.a_parallel ~default:"") "parallel: 4 workers");
  Alcotest.(check (list (list int))) "same rows both ways"
    (rows_of aw.Engine.a_outcome) (rows_of a.Engine.a_outcome);
  Session.close s;
  Database.close db

(* Explain analyze from four sessions on four domains at once, two over
   an instance that plans the temporal join and two over one that does
   not: each statement's span tree sums to its own page reads, and its
   rows are those the statement returns when it runs alone. *)
let test_concurrent_explain_analyze () =
  let db = ok (Database.create ()) in
  exec db
    {|create persistent interval h (id = i4, amount = i4)
      create persistent interval i (id = i4, amount = i4)
      range of h is h
      range of i is i|};
  let rng = Random.State.make [| seed |] in
  let day n =
    Chronon.to_string
      (Chronon.add_seconds (Chronon.parse_exn "1/1/80") (n * 86400))
  in
  List.iter
    (fun rel ->
      for id = 1 to 80 do
        let lo = Random.State.int rng 400 in
        let hi = lo + 1 + Random.State.int rng 60 in
        exec db
          (Printf.sprintf
             {|append to %s (id = %d, amount = %d) valid from %S to %S|}
             rel id (Random.State.int rng 5) (day lo) (day hi))
      done)
    [ "h"; "i" ];
  let src = "retrieve (h.id, i.id) where h.amount = i.amount when h overlap i" in
  let instance temporal_join =
    Db_instance.of_database
      ~config:{ Executor.default_config with temporal_join }
      db
  in
  let tjoin = instance true and nested = instance false in
  let analyze inst =
    let s = Session.open_ inst in
    Fun.protect ~finally:(fun () -> Session.close s) @@ fun () ->
    let a = ok (Session.analyze s src) in
    match a.Engine.a_outcome with
    | Engine.Rows { tuples; io; trace; plan; _ } ->
        ( tuples,
          io.Executor.input_reads,
          Option.map Trace.total_reads trace,
          Tdb_query.Plan.to_string plan )
    | _ -> Alcotest.fail "expected rows"
  in
  let alone_tj, _, _, plan_tj = analyze tjoin in
  let alone_nl, _, _, plan_nl = analyze nested in
  Alcotest.(check bool) "the two configs plan differently" true
    (plan_tj <> plan_nl);
  let rounds = 25 in
  let results =
    List.map
      (fun (name, inst) ->
        ( name,
          inst,
          Domain.spawn (fun () -> List.init rounds (fun _ -> analyze inst)) ))
      [ ("tjoin a", tjoin); ("nested a", nested); ("tjoin b", tjoin);
        ("nested b", nested) ]
    |> List.map (fun (name, inst, d) -> (name, inst, Domain.join d))
  in
  List.iter
    (fun (name, inst, runs) ->
      let alone = if inst == tjoin then alone_tj else alone_nl in
      List.iter
        (fun (tuples, reads, span_reads, _) ->
          Alcotest.(check (option int))
            (name ^ ": span reads = its own page reads")
            (Some reads) span_reads;
          Alcotest.(check bool) (name ^ ": rows as when run alone") true
            (tuples = alone))
        runs)
    results;
  Database.close db

(* --- unit: statement-log attribution --- *)

let test_log_session_fields () =
  let path = Filename.temp_file "tdb_session_log" ".jsonl" in
  (* the sink opens after setup, so only the session statements land *)
  let db, inst = fresh_instance () in
  Statement_log.set (Some path);
  Fun.protect
    ~finally:(fun () ->
      Statement_log.set None;
      if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let s = Session.open_ ~name:"sess-a" inst in
  ignore (ok (Session.execute_one s "append to tr (id = 1, amount = 10)"));
  ignore (ok (Session.execute_one s retrieve_all));
  Session.close s;
  Database.close db;
  let ic = open_in path in
  let lines =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | l -> go (l :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])
  in
  let records =
    List.filter_map
      (fun l ->
        match Json.parse l with
        | Ok (Json.Obj fields as j) ->
            (match Tdb_benchkit.Obs_json.validate_statement_record j with
            | Ok () -> ()
            | Error e -> Alcotest.failf "schema violation (%s): %s" e l);
            if List.assoc_opt "record" fields = Some (Json.Str "statement")
            then Some fields
            else None
        | _ -> Alcotest.failf "unparseable line: %s" l)
      lines
  in
  (* only the two session statements ran while the sink was open *)
  Alcotest.(check int) "two statement records" 2 (List.length records);
  let append = List.nth records 0 and retrieve = List.nth records 1 in
  let str fields name =
    match List.assoc_opt name fields with
    | Some (Json.Str s) -> s
    | _ -> Alcotest.failf "missing %s" name
  in
  let num fields name =
    match List.assoc_opt name fields with
    | Some (Json.Num f) -> int_of_float f
    | _ -> Alcotest.failf "missing %s" name
  in
  Alcotest.(check string) "append session" "sess-a" (str append "session");
  Alcotest.(check int) "append publishes epoch 1" 1 (num append "epoch");
  Alcotest.(check string) "retrieve session" "sess-a" (str retrieve "session");
  Alcotest.(check int) "retrieve pinned epoch 1" 1 (num retrieve "epoch");
  (* per-instance ids are gap-free from 0 *)
  Alcotest.(check string) "first instance id" "S0" (str append "id");
  Alcotest.(check string) "second instance id" "S1" (str retrieve "id")

(* --- unit: session metrics --- *)

let test_session_metrics () =
  let was = Metric.enabled () in
  Metric.reset_all ();
  Metric.set_enabled true;
  Fun.protect ~finally:(fun () -> Metric.set_enabled was) @@ fun () ->
  let db, inst = fresh_instance () in
  let s = Session.open_ inst in
  Alcotest.(check (float 0.001))
    "open-sessions gauge tracks opens" 1.0
    (Metric.gauge_value Db_instance.open_sessions_gauge);
  ignore (ok (Session.execute_one s "append to tr (id = 1, amount = 10)"));
  ignore (ok (Session.execute_one s retrieve_all));
  ignore (ok (Session.execute_one s retrieve_all));
  Alcotest.(check int) "snapshot statements counted" 2
    (Metric.count Db_instance.snapshot_statements_counter);
  Alcotest.(check int) "serialized statements counted" 1
    (Metric.count Db_instance.serialized_statements_counter);
  Alcotest.(check (float 0.001))
    "snapshot lag is zero without concurrent writers" 0.0
    (Metric.gauge_value Db_instance.snapshot_lag_gauge);
  Session.close s;
  Alcotest.(check (float 0.001))
    "open-sessions gauge tracks closes" 0.0
    (Metric.gauge_value Db_instance.open_sessions_gauge);
  Database.close db

(* --- the concurrent oracle --- *)

type op = Append of int * int | Delete of int | Replace of int * int

let op_text = function
  | Append (id, amount) ->
      Printf.sprintf "append to tr (id = %d, amount = %d)" id amount
  | Delete id -> Printf.sprintf "delete t where t.id = %d" id
  | Replace (id, amount) ->
      Printf.sprintf "replace t (amount = %d) where t.id = %d" amount id

let apply_op rows = function
  | Append (id, amount) -> (id, amount) :: rows
  | Delete id -> List.filter (fun (i, _) -> i <> id) rows
  | Replace (id, amount) ->
      List.map (fun (i, a) -> if i = id then (i, amount) else (i, a)) rows

let gen_op rng =
  let id = Random.State.int rng 12 in
  match Random.State.int rng 4 with
  | 0 | 1 -> Append (id, Random.State.int rng 100)
  | 2 -> Delete id
  | _ -> Replace (id, Random.State.int rng 100)

let model_rows rows =
  List.sort compare (List.map (fun (i, a) -> [ i; a ]) rows)

(* M writer domains replay random histories through serialized sessions;
   N reader domains run snapshot retrieves with no lock and check every
   answer against the model state at the stamp they pinned.  A test-side
   lock makes (execute, apply to model, record stamp -> state) atomic
   with respect to other writers; readers only take it for the map
   lookup, after their lock-free retrieve finished. *)
let test_concurrent_oracle () =
  let writers = 2 and readers = 3 and ops_per_writer = 40 in
  let db, inst = fresh_instance () in
  let model_lock = Mutex.create () in
  let by_stamp : (Chronon.t, int list list) Hashtbl.t = Hashtbl.create 256 in
  let current = ref [] in
  Hashtbl.replace by_stamp (Db_instance.commit inst).Db_instance.stamp
    (model_rows !current);
  let failures = Atomic.make 0 in
  let complaints = Atomic.make [] in
  let complain fmt =
    Printf.ksprintf
      (fun msg ->
        Atomic.incr failures;
        let rec push () =
          let old = Atomic.get complaints in
          if not (Atomic.compare_and_set complaints old (msg :: old)) then
            push ()
        in
        push ())
      fmt
  in
  let writers_done = Atomic.make 0 in
  let writer w =
    (* [writers_done] must advance even on an exception, or the readers
       spin forever and the failure never surfaces *)
    Fun.protect ~finally:(fun () -> Atomic.incr writers_done) @@ fun () ->
    let rng = Random.State.make [| seed; w |] in
    let s = Session.open_ ~name:(Printf.sprintf "w%d" w) inst in
    for _ = 1 to ops_per_writer do
      let op = gen_op rng in
      Mutex.lock model_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock model_lock)
        (fun () ->
          match Session.execute_one s (op_text op) with
          | Ok _ ->
              current := apply_op !current op;
              Hashtbl.replace by_stamp
                (Db_instance.commit inst).Db_instance.stamp
                (model_rows !current)
          | Error e -> complain "writer %d: %s failed: %s" w (op_text op) e)
    done;
    Session.close s
  in
  let reader r =
    let s = Session.open_ ~name:(Printf.sprintf "r%d" r) inst in
    let checks = ref 0 in
    (* keep reading until every writer finished, then once more so the
       final state is checked too *)
    let continue = ref true in
    while !continue do
      if Atomic.get writers_done = writers then continue := false;
      (match Session.execute_one s retrieve_all with
      | Ok o ->
          let got = rows_of o in
          let stamp = Session.clock s in
          Mutex.lock model_lock;
          let expected = Hashtbl.find_opt by_stamp stamp in
          Mutex.unlock model_lock;
          (match expected with
          | None ->
              complain "reader %d pinned an unknown stamp %s" r
                (Chronon.to_string stamp)
          | Some want ->
              if got <> want then
                complain
                  "reader %d: snapshot at %s returned %d row(s), model has %d"
                  r (Chronon.to_string stamp) (List.length got)
                  (List.length want));
          incr checks
      | Error e -> complain "reader %d: retrieve failed: %s" r e)
    done;
    Session.close s;
    !checks
  in
  let domains =
    List.init readers (fun r -> Domain.spawn (fun () -> reader r))
  in
  let writer_domains =
    List.init writers (fun w -> Domain.spawn (fun () -> writer w))
  in
  List.iter Domain.join writer_domains;
  let checks = List.map Domain.join domains in
  Database.close db;
  if Atomic.get failures > 0 then
    Alcotest.failf
      "concurrent oracle mismatch (replay with TDB_ORACLE_SEED=%d):\n%s" seed
      (String.concat "\n" (Atomic.get complaints));
  List.iteri
    (fun r n ->
      if n < 1 then Alcotest.failf "reader %d never completed a check" r)
    checks;
  Alcotest.(check int) "all epochs published"
    (writers * ops_per_writer)
    (Db_instance.epoch inst)

let suites =
  [
    ( "session",
      [
        Alcotest.test_case "snapshot pins published epoch" `Quick
          test_snapshot_pins_published_epoch;
        Alcotest.test_case "pinned snapshot is stable" `Quick
          test_pinned_snapshot_is_stable;
        Alcotest.test_case "snapshot path rejects writes" `Quick
          test_snapshot_rejects_writes;
        Alcotest.test_case "explain and analyze isolation" `Quick
          test_explain_and_analyze_isolation;
        Alcotest.test_case "snapshot reads report one worker" `Quick
          test_snapshot_reports_one_worker;
        Alcotest.test_case "concurrent explain analyze" `Quick
          test_concurrent_explain_analyze;
        Alcotest.test_case "statement-log session fields" `Quick
          test_log_session_fields;
        Alcotest.test_case "session metrics" `Quick test_session_metrics;
        Alcotest.test_case "concurrent oracle" `Slow test_concurrent_oracle;
      ] );
  ]
