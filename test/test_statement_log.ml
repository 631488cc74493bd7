(* The structured statement log (lib/obs/statement_log).

   The engine emits one JSONL record per executed statement while holding
   its statement lock; these tests drive real statements through an
   in-memory database and check the records on disk: field shape, outcome
   mapping (including semantic errors), monotone ids, the slow-statement
   threshold (statements filtered, notices kept) and size-based
   rotation. *)

module Json = Tdb_obs.Json
module Statement_log = Tdb_obs.Statement_log
module Database = Tdb_core.Database
module Engine = Tdb_core.Engine

let with_log ?slow_s ?max_bytes f =
  let path = Filename.temp_file "tdb_stmt_log" ".jsonl" in
  Statement_log.set ?slow_s ?max_bytes (Some path);
  Fun.protect
    ~finally:(fun () ->
      Statement_log.set None;
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists (path ^ ".1") then Sys.remove (path ^ ".1"))
    (fun () -> f path)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let parse_line line =
  match Json.parse line with
  | Ok (Json.Obj fields as j) -> (
      (* every line must satisfy the shared schema validator *)
      match Tdb_benchkit.Obs_json.validate_statement_record j with
      | Ok () -> fields
      | Error e -> Alcotest.failf "schema violation (%s): %s" e line)
  | Ok _ -> Alcotest.failf "record is not an object: %s" line
  | Error e -> Alcotest.failf "unparseable record (%s): %s" e line

let sfield fields name =
  match List.assoc_opt name fields with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.failf "missing string field %s" name

let ifield fields name =
  match List.assoc_opt name fields with
  | Some (Json.Num f) -> int_of_float f
  | _ -> Alcotest.failf "missing numeric field %s" name

let fresh_db () =
  match Database.create () with
  | Ok db -> db
  | Error e -> Alcotest.fail e

let run db src =
  match Engine.execute db src with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "statement failed (%s): %s" e src

let test_statement_records () =
  with_log @@ fun path ->
  let db = fresh_db () in
  run db "create interval emp (name = c20, salary = i4);";
  run db "range of e is emp;";
  run db "append to emp (name = \"ahn\", salary = 30000);";
  run db "retrieve (e.name, e.salary);";
  (* a semantic error still reaches the engine, so it is logged too *)
  (match Engine.execute db "retrieve (z.name);" with
  | Ok _ -> Alcotest.fail "expected a semantic error"
  | Error _ -> ());
  Database.close db;
  let recs = List.map parse_line (read_lines path) in
  let stmts =
    List.filter (fun r -> sfield r "record" = "statement") recs
  in
  Alcotest.(check int) "five statement records" 5 (List.length stmts);
  let kinds = List.map (fun r -> sfield r "kind") stmts in
  Alcotest.(check (list string))
    "kinds in execution order"
    [ "create"; "range"; "append"; "retrieve"; "retrieve" ]
    kinds;
  let outcomes = List.map (fun r -> sfield r "outcome") stmts in
  Alcotest.(check (list string))
    "outcome mapping"
    [ "ack"; "ack"; "modified"; "rows"; "error" ]
    outcomes;
  (* ids are monotone within the file *)
  let ids =
    List.map
      (fun r ->
        let id = sfield r "id" in
        Alcotest.(check bool) "id shaped S<n>" true (id.[0] = 'S');
        int_of_string (String.sub id 1 (String.length id - 1)))
      stmts
  in
  Alcotest.(check bool) "ids strictly increase" true
    (List.for_all2 ( < ) ids (List.tl ids @ [ max_int ]));
  (* the retrieve carries its row count; every record carries latency *)
  let retrieve = List.nth stmts 3 in
  Alcotest.(check int) "retrieve row count" 1 (ifield retrieve "rows");
  List.iter
    (fun r ->
      match List.assoc_opt "latency_s" r with
      | Some (Json.Num f) when f >= 0.0 -> ()
      | _ -> Alcotest.fail "latency missing")
    stmts;
  (* the failed retrieve records its message *)
  let failed = List.nth stmts 4 in
  match List.assoc_opt "error" failed with
  | Some (Json.Str _) -> ()
  | _ -> Alcotest.fail "error record carries no message"

let slow_threshold_filters path =
  let db = fresh_db () in
  run db "create interval emp (name = c20, salary = i4);";
  run db "range of e is emp; retrieve (e.name);";
  Database.close db;
  Statement_log.note "checkpoint" ~attrs:[ ("n", "1") ];
  let recs = List.map parse_line (read_lines path) in
  Alcotest.(check int) "fast statements filtered out" 0
    (List.length (List.filter (fun r -> sfield r "record" = "statement") recs));
  let notes = List.filter (fun r -> sfield r "record" = "notice") recs in
  Alcotest.(check int) "notices always kept" 1 (List.length notes);
  Alcotest.(check string) "notice name" "checkpoint"
    (sfield (List.hd notes) "notice")

(* The threshold given to [set], and the TDB_LOG_SLOW_MS one a [set]
   without [?slow_s] takes, as a TDB_LOG sink does. *)
let test_slow_threshold_filters_statements () =
  with_log ~slow_s:3600.0 slow_threshold_filters;
  (* the Unix library has no unsetenv: an unset variable is restored as
     empty, which the log reads as absent *)
  let prior = Option.value (Sys.getenv_opt "TDB_LOG_SLOW_MS") ~default:"" in
  Unix.putenv "TDB_LOG_SLOW_MS" "3600000";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "TDB_LOG_SLOW_MS" prior)
    (fun () -> with_log slow_threshold_filters)

let test_rotation () =
  with_log ~max_bytes:600 @@ fun path ->
  let db = fresh_db () in
  run db "create interval emp (name = c20, salary = i4);";
  run db "range of e is emp;";
  for i = 1 to 10 do
    run db
      (Printf.sprintf "append to emp (name = \"w%d\", salary = %d);" i
         (1000 + i))
  done;
  Database.close db;
  Alcotest.(check bool) "rotated file exists" true
    (Sys.file_exists (path ^ ".1"));
  (* rotation keeps only the newest chunks: the previous chunk in PATH.1,
     the live tail in PATH — both must stay valid JSONL and bounded *)
  let rotated = read_lines (path ^ ".1") and live = read_lines path in
  Alcotest.(check bool) "both files hold records" true
    (rotated <> [] && live <> []);
  List.iter (fun l -> ignore (parse_line l)) (rotated @ live);
  let size p =
    let ic = open_in_bin p in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> in_channel_length ic)
  in
  Alcotest.(check bool) "live file stays under the cap" true
    (size path <= 600)

let test_disabled_writes_nothing () =
  let path = Filename.temp_file "tdb_stmt_off" ".jsonl" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> Statement_log.set None) @@ fun () ->
  Statement_log.set None;
  Alcotest.(check bool) "disabled" false (Statement_log.enabled ());
  let db = fresh_db () in
  run db "create interval emp (name = c20, salary = i4);";
  Database.close db;
  Alcotest.(check bool) "no file appears" false (Sys.file_exists path)

let suites =
  [
    ( "statement_log",
      [
        Alcotest.test_case "statement records" `Quick test_statement_records;
        Alcotest.test_case "slow threshold filters" `Quick
          test_slow_threshold_filters_statements;
        Alcotest.test_case "size rotation" `Quick test_rotation;
        Alcotest.test_case "disabled writes nothing" `Quick
          test_disabled_writes_nothing;
      ] );
  ]
