(* The interactive TQuel shell.

   Usage:
     tquel                 in-memory session
     tquel -d DIR          persistent database rooted at DIR
     tquel -f SCRIPT       run a script, then exit (combine with -d)
     tquel -c "STATEMENT"  run one statement, then exit

   Inside the shell, statements may span lines and end with ';'.
   Meta commands: \q quit, \l list relations, \ranges, \timing toggles
   page-I/O reporting, \clock shows the session clock, \advance N moves it
   forward N seconds, \session shows the session and its commit epoch,
   \metrics [json|reset] dumps engine metrics, \explain shows a
   retrieve's plan without running it, \explain analyze executes a
   statement and prints the executed plan tree with per-stage counters,
   \help.

   Statements route through the session layer (lib/session): displayed
   retrieves resolve the published commit epoch and run on the snapshot
   path, everything else serializes through the writer and publishes the
   next epoch.  --sessions N is a stress mode: every displayed retrieve
   is executed by N concurrent snapshot sessions on separate domains and
   their answers are checked for agreement.

   Prefixing input with "profile" enables span tracing for just that
   input and prints each statement's operator tree with per-node page I/O
   and wall time; --profile keeps tracing on for the whole session.
   Prefixing input with "explain analyze" runs each statement through
   Engine.analyze instead.  --log PATH appends one JSON record per
   statement to PATH (see Tdb_obs.Statement_log). *)

module Engine = Tdb_core.Engine
module Database = Tdb_core.Database
module Db_instance = Tdb_session.Db_instance
module Session = Tdb_session.Session
module Relation_file = Tdb_storage.Relation_file
module Disk = Tdb_storage.Disk
module Schema = Tdb_relation.Schema
module Chronon = Tdb_time.Chronon
module Clock = Tdb_time.Clock
module Executor = Tdb_query.Executor
module Plan = Tdb_query.Plan

(* The shell's execution context: the shared instance, the interactive
   session, the --sessions stress width, and whether --profile traces
   every statement. *)
type ctx = {
  inst : Db_instance.t;
  session : Session.t;
  stress : int;
  profile : bool;
}

let db_of ctx = Db_instance.database ctx.inst

let show_timing = ref false

let trace_of = function
  | Engine.Rows { trace; _ }
  | Engine.Stored { trace; _ }
  | Engine.Modified { trace; _ } ->
      trace
  | Engine.Ack _ -> None

let print_outcome outcome =
  (match outcome with
  | Engine.Rows { schema; tuples; io; plan; _ } ->
      print_endline (Engine.format_rows schema tuples);
      if !show_timing then
        Printf.printf "-- %d pages in, %d pages out, plan: %s\n"
          io.Executor.input_reads io.Executor.output_writes
          (Plan.to_string plan)
  | Engine.Stored { relation; count; io; plan; _ } ->
      Printf.printf "stored %d tuples into %s\n" count relation;
      if !show_timing then
        Printf.printf "-- %d pages in, %d pages out, plan: %s\n"
          io.Executor.input_reads io.Executor.output_writes
          (Plan.to_string plan)
  | Engine.Modified { matched; inserted; _ } ->
      Printf.printf "%d tuples qualified, %d versions inserted\n" matched
        inserted
  | Engine.Ack msg -> print_endline msg);
  (* only a traced statement carries a tree *)
  Option.iter
    (fun node -> print_string (Tdb_obs.Trace.render node))
    (trace_of outcome)

(* Leading-keyword prefixes: "profile <statements>" runs the rest of the
   input with span tracing enabled for just that input; "explain analyze
   <statements>" runs each statement through [Engine.analyze]. *)
let strip_word w src =
  let t = String.trim src in
  let n = String.length w in
  let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' in
  if
    String.length t > n
    && String.lowercase_ascii (String.sub t 0 n) = w
    && is_space t.[n]
  then Some (String.sub t (n + 1) (String.length t - n - 1))
  else None

let strip_profile = strip_word "profile"

let strip_analyze src =
  Option.bind (strip_word "explain" src) (strip_word "analyze")

(* --sessions N: run one displayed retrieve through N concurrent
   snapshot sessions, one domain each, and require identical answers.
   The first session's rows are printed (all are checked equal), then
   an agreement line naming the epochs the readers pinned. *)
let run_stress_retrieve ctx stmt =
  let n = ctx.stress in
  let results =
    List.init n (fun i ->
        Domain.spawn (fun () ->
            let s =
              Session.open_ ~name:(Printf.sprintf "stress%d" i) ctx.inst
            in
            Fun.protect
              ~finally:(fun () -> Session.close s)
              (fun () ->
                let r = Session.execute_statement s stmt in
                (r, Session.pinned_epoch s))))
    |> List.map Domain.join
  in
  match results with
  | [] -> true
  | ((first, _) :: _ as all) -> (
      match first with
      | Error e ->
          Printf.printf "error: %s\n" e;
          false
      | Ok outcome ->
          let render = function
            | Ok (Engine.Rows { schema; tuples; _ }) ->
                Engine.format_rows schema tuples
            | Ok _ -> "(not rows)"
            | Error e -> "error: " ^ e
          in
          let reference = render first in
          let disagree =
            List.filter (fun (r, _) -> render r <> reference) all
          in
          print_outcome outcome;
          if disagree <> [] then begin
            Printf.printf
              "error: %d of %d concurrent sessions disagreed with the first\n"
              (List.length disagree) n;
            false
          end
          else begin
            let epochs =
              List.sort_uniq compare (List.map (fun (_, e) -> e) all)
            in
            Printf.printf "sessions: %d concurrent readers agreed (epoch %s)\n"
              n
              (String.concat ", " (List.map string_of_int epochs));
            true
          end)

let run_plain ?(trace = false) ctx src =
  let trace = trace || ctx.profile in
  if ctx.stress > 1 then
    match Tdb_tquel.Parser.parse_program src with
    | Error e ->
        Printf.printf "error: %s\n" e;
        false
    | Ok stmts ->
        List.for_all
          (fun stmt ->
            if Engine.read_only stmt then run_stress_retrieve ctx stmt
            else
              match Session.execute_statement ~trace ctx.session stmt with
              | Ok outcome ->
                  print_outcome outcome;
                  true
              | Error e ->
                  Printf.printf "error: %s\n" e;
                  false)
          stmts
  else
    match Session.execute ~trace ctx.session src with
    | Ok outcomes ->
        List.iter print_outcome outcomes;
        true
    | Error e ->
        Printf.printf "error: %s\n" e;
        false

let run_analyze ctx src =
  match Tdb_tquel.Parser.parse_program src with
  | Error e ->
      Printf.printf "error: %s\n" e;
      false
  | Ok stmts ->
      List.for_all
        (fun stmt ->
          match Session.analyze_statement ctx.session stmt with
          | Ok a ->
              print_string (Engine.render_analysis a);
              true
          | Error e ->
              Printf.printf "error: %s\n" e;
              false)
        stmts

let run_source ctx src =
  match strip_analyze src with
  | Some rest -> run_analyze ctx rest
  | None -> (
      match strip_profile src with
      | None -> run_plain ctx src
      | Some rest -> run_plain ~trace:true ctx rest)

let list_relations db =
  match Database.relation_names db with
  | [] -> print_endline "(no relations)"
  | names ->
      List.iter
        (fun name ->
          match Database.find_relation db name with
          | None -> ()
          | Some rel ->
              let schema = Relation_file.schema rel in
              Printf.printf "%-20s %-20s %-28s %5d pages\n" name
                (Tdb_relation.Db_type.to_string (Schema.db_type schema))
                (Relation_file.organization_to_string
                   (Relation_file.organization rel))
                (Relation_file.npages rel))
        names

let help () =
  print_string
    "TQuel statements end with ';'.  Examples:\n\
    \  create persistent interval emp (name = c20, salary = i4);\n\
    \  range of e is emp;\n\
    \  append to emp (name = \"ahn\", salary = 30000);\n\
    \  retrieve (e.name, e.salary) when e overlap \"now\";\n\
    \  retrieve (e.salary) as of \"1980-06-01\";\n\
     Prefix any input with 'profile' to print its operator trace tree:\n\
    \  profile retrieve (e.name) when e overlap \"now\";\n\
     Prefix with 'explain analyze' to execute and print per-stage counters:\n\
    \  explain analyze retrieve (e.name) when e overlap \"now\";\n\
     Meta commands: \\q quit, \\l relations, \\ranges, \\timing, \\clock,\n\
    \  \\advance N, \\session, \\metrics [json|reset], \\explain STMT,\n\
    \  \\explain analyze [json] STMT, \\recoveries, \\help\n\
     \\explain shows a retrieve's plan (fence[...] marks temporal pruning)\n\
     without running it; \\explain analyze runs the statement and reports\n\
     the executed plan (rows, batches, pages, skips, wall time per stage).\n"

(* tolerate a trailing ';' as in ordinary statements *)
let strip_semi words =
  let t = String.trim (String.concat " " words) in
  if String.length t > 0 && t.[String.length t - 1] = ';' then
    String.sub t 0 (String.length t - 1)
  else t

let meta ctx line =
  let db = db_of ctx in
  match String.split_on_char ' ' (String.trim line) with
  | [ "\\q" ] | [ "\\quit" ] -> `Quit
  | [ "\\l" ] | [ "\\list" ] ->
      list_relations db;
      `Continue
  | [ "\\ranges" ] ->
      List.iter
        (fun (v, r) -> Printf.printf "range of %s is %s\n" v r)
        (Database.ranges db);
      `Continue
  | [ "\\timing" ] ->
      show_timing := not !show_timing;
      Printf.printf "timing %s\n" (if !show_timing then "on" else "off");
      `Continue
  | [ "\\clock" ] ->
      Printf.printf "session clock: %s\n" (Chronon.to_string (Database.now db));
      `Continue
  | [ "\\advance"; n ] -> (
      match int_of_string_opt n with
      | Some s when s >= 0 ->
          Clock.advance (Database.clock db) s;
          (* snapshots pin published state: make the moved clock
             visible to them *)
          Db_instance.republish ctx.inst;
          Printf.printf "session clock: %s\n"
            (Chronon.to_string (Database.now db));
          `Continue
      | _ ->
          print_endline "usage: \\advance SECONDS";
          `Continue)
  | [ "\\session" ] ->
      let c = Db_instance.commit ctx.inst in
      Printf.printf "session: %s\nepoch: %d (stamp %s)\nopen sessions: %d\n"
        (Session.name ctx.session) c.Db_instance.epoch
        (Chronon.to_string c.Db_instance.stamp)
        (Atomic.get (Db_instance.open_sessions ctx.inst));
      `Continue
  | [ "\\metrics" ] ->
      print_endline
        (Tdb_benchkit.Report.table ~title:"engine metrics"
           ~header:[ "metric"; "kind"; "value" ]
           (Tdb_obs.Metric.table ()));
      `Continue
  | [ "\\metrics"; "json" ] ->
      (* Shared schema with `bench --json`: Obs_json validates the dump
         before it reaches any consumer. *)
      print_endline (Tdb_obs.Json.to_string (Tdb_benchkit.Obs_json.metrics ()));
      `Continue
  | [ "\\metrics"; "reset" ] ->
      Tdb_obs.Metric.reset_all ();
      print_endline "metrics reset";
      `Continue
  | "\\explain" :: "analyze" :: "json" :: rest when rest <> [] ->
      (match Session.analyze ctx.session (strip_semi rest) with
      | Ok a -> print_endline (Tdb_obs.Json.to_string (Engine.analysis_to_json a))
      | Error e -> Printf.printf "error: %s\n" e);
      `Continue
  | "\\explain" :: "analyze" :: rest when rest <> [] ->
      (match Session.analyze ctx.session (strip_semi rest) with
      | Ok a -> print_string (Engine.render_analysis a)
      | Error e -> Printf.printf "error: %s\n" e);
      `Continue
  | "\\explain" :: rest when rest <> [] ->
      let stmt = strip_semi rest in
      (match Session.explain ctx.session stmt with
      | Ok plan -> Printf.printf "plan: %s\n" plan
      | Error e -> Printf.printf "error: %s\n" e);
      `Continue
  | [ "\\explain" ] ->
      print_endline "usage: \\explain [analyze [json]] STATEMENT";
      `Continue
  | [ "\\recoveries" ] ->
      let page_level = Database.recoveries db in
      let journal = Database.journal_recovery db in
      if page_level = [] && journal = None then
        print_endline "(no recovery was needed when this database was opened)"
      else begin
        Option.iter
          (fun r ->
            Printf.printf "journal: %s\n"
              (Format.asprintf "%a" Tdb_storage.Journal.pp_report r))
          journal;
        List.iter
          (fun (name, r) ->
            Printf.printf "relation %s: %s\n" name
              (Format.asprintf "%a" Disk.pp_recovery r))
          page_level
      end;
      `Continue
  | [ "\\help" ] | [ "\\h" ] | [ "\\?" ] ->
      help ();
      `Continue
  | _ ->
      print_endline "unknown meta command (try \\help)";
      `Continue

let repl ctx =
  print_endline
    "tquel - a temporal DBMS speaking TQuel (type \\help for help)";
  let buffer = Buffer.create 256 in
  let rec loop () =
    print_string (if Buffer.length buffer = 0 then "tquel> " else "   ... ");
    match read_line () with
    | exception End_of_file -> print_newline ()
    | line when Buffer.length buffer = 0 && String.length (String.trim line) > 0
                && (String.trim line).[0] = '\\' -> (
        match meta ctx line with `Quit -> () | `Continue -> loop ())
    | line ->
        Buffer.add_string buffer line;
        Buffer.add_char buffer '\n';
        let text = Buffer.contents buffer in
        let trimmed = String.trim text in
        if String.length trimmed > 0 && trimmed.[String.length trimmed - 1] = ';'
        then begin
          Buffer.clear buffer;
          ignore (run_source ctx trimmed)
        end;
        loop ()
  in
  loop ()

let warn_recoveries db =
  Option.iter
    (fun r ->
      Printf.eprintf
        "notice: journal recovery ran: %s (details: \\recoveries)\n%!"
        (Format.asprintf "%a" Tdb_storage.Journal.pp_report r))
    (Database.journal_recovery db);
  List.iter
    (fun (name, r) ->
      Printf.eprintf "warning: recovered relation %s: %s\n%!" name
        (Format.asprintf "%a" Disk.pp_recovery r))
    (Database.recoveries db)

let statement_exit ok = if ok then 0 else Tdb_error.exit_code Tdb_error.Query

let run_session ~config ~profile dir script command stress =
  match Database.create ?dir () with
  | Error e ->
      Printf.eprintf "cannot open database: %s\n" e;
      1
  | Ok db ->
      warn_recoveries db;
      let inst = Db_instance.of_database ~config db in
      let session = Session.open_ ~name:"main" inst in
      let ctx = { inst; session; stress; profile } in
      let finish code =
        Session.close session;
        Database.close db;
        code
      in
      (match (script, command) with
      | Some path, _ ->
          if not (Sys.file_exists path) then begin
            Printf.eprintf "no such script: %s\n" path;
            finish 1
          end
          else begin
            let ic = open_in path in
            let n = in_channel_length ic in
            let src = really_input_string ic n in
            close_in ic;
            finish (statement_exit (run_source ctx src))
          end
      | None, Some stmt -> finish (statement_exit (run_source ctx stmt))
      | None, None ->
          repl ctx;
          finish 0)

(* Storage-level failures — corruption, I/O — stop the process with a
   class-specific exit code and a one-line message, never a backtrace. *)
let main dir script command profile workers log sessions =
  (* --log overrides TDB_LOG but keeps the env-tuned knobs. *)
  Option.iter (fun path -> Tdb_obs.Statement_log.set (Some path)) log;
  let config =
    match workers with
    | None -> Executor.default_config
    | Some n -> { Executor.default_config with workers = max 1 n }
  in
  let stress = max 1 sessions in
  try run_session ~config ~profile dir script command stress
  with Tdb_error.Error (cls, msg) ->
    Printf.eprintf "fatal %s\n" (Tdb_error.message cls msg);
    Tdb_error.exit_code cls

open Cmdliner

let dir =
  let doc = "Open (or create) a persistent database rooted at $(docv)." in
  Arg.(value & opt (some string) None & info [ "d"; "database" ] ~docv:"DIR" ~doc)

let script =
  let doc = "Run the TQuel script $(docv) and exit." in
  Arg.(value & opt (some string) None & info [ "f"; "file" ] ~docv:"SCRIPT" ~doc)

let command =
  let doc = "Run a single TQuel statement and exit." in
  Arg.(value & opt (some string) None & info [ "c"; "command" ] ~docv:"STMT" ~doc)

let profile =
  let doc =
    "Enable span tracing for the whole session: every statement prints its \
     operator trace tree (page I/O and wall time per operator)."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let workers =
  let doc =
    "Number of worker domains for parallel scans (at least 1; 1 disables \
     parallelism).  Defaults to the $(b,TDB_WORKERS) environment variable, \
     or the machine's recommended domain count."
  in
  Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N" ~doc)

let log =
  let doc =
    "Append one JSON record per executed statement to $(docv) (statement \
     text, outcome, latency, page I/O, journal bytes).  Equivalent to \
     setting $(b,TDB_LOG); $(b,TDB_LOG_SLOW_MS) and $(b,TDB_LOG_MAX_BYTES) \
     tune the slow-statement threshold and size-based rotation."
  in
  Arg.(value & opt (some string) None & info [ "log" ] ~docv:"PATH" ~doc)

let sessions =
  let doc =
    "Stress mode: run every displayed retrieve on $(docv) concurrent \
     snapshot sessions (each pins the published epoch and executes with \
     no lock held) and check they agree.  1 (the default) keeps the \
     ordinary single-session behaviour."
  in
  Arg.(value & opt int 1 & info [ "sessions" ] ~docv:"N" ~doc)

let cmd =
  let doc = "a temporal database management system speaking TQuel" in
  let info = Cmd.info "tquel" ~version:"1.0.0" ~doc in
  Cmd.v info
    Term.(
      const main $ dir $ script $ command $ profile $ workers $ log $ sessions)

let () = exit (Cmd.eval' cmd)
