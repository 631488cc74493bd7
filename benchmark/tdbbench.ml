(* tdbbench: the session-path TQuel benchmark.

     tdbbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     tdbbench --all [--seed N] [--seconds S] [--trace 0|1]
     tdbbench --repeat N (--workload NAME | --all) [--seed N] ...

   One run sets the workload up three times (set-up time is their
   median), measures the last instance for S seconds, checks every
   result, and prints its metrics; the last line is one JSON object.
   --all and --repeat start one fresh process per run, alternating the
   workload order between repeats and using seeds N, N+1, ...; --repeat
   prints each metric's median and quartiles.  Exit codes: 0 all results
   correct, 1 a wrong result or a failed run, 2 bad usage or a TDB_*
   variable in the environment. *)

module W = Tdbbench_core.Workload
module Json = Tdbbench_core.Json
module Stats = Tdbbench_core.Stats

let default_seconds = 12

let usage () =
  prerr_endline
    "usage: tdbbench (--workload NAME | --all) [--seed N] [--seconds S] \
     [--trace 0|1] [--repeat N]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun s -> s.W.name) W.specs));
  exit 2

(* Both sides of a comparison must run the engine's defaults. *)
let refuse_overrides () =
  let set =
    List.filter
      (fun kv -> String.length kv > 4 && String.sub kv 0 4 = "TDB_")
      (Array.to_list (Unix.environment ()))
  in
  if set <> [] then begin
    Printf.eprintf "tdbbench: refusing to run with engine overrides set: %s\n"
      (String.concat " " set);
    exit 2
  end

(* --- provenance --- *)

let read_file path =
  try Some (In_channel.with_open_text path In_channel.input_all) with Sys_error _ -> None

let commit () =
  let trim = String.trim in
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
      let head = trim head in
      match String.split_on_char ' ' head with
      | [ "ref:"; r ] -> (
          match read_file (Filename.concat ".git" r) with
          | Some h -> trim h
          | None -> (
              match read_file ".git/packed-refs" with
              | None -> "unknown"
              | Some p ->
                  List.fold_left
                    (fun acc line ->
                      match String.split_on_char ' ' line with
                      | [ h; name ] when name = r -> h
                      | _ -> acc)
                    "unknown" (String.split_on_char '\n' p)))
      | _ -> head)

(* CPUs this process may run on, from the kernel's affinity list. *)
let nproc () =
  let count list =
    List.fold_left
      (fun n part ->
        match String.split_on_char '-' (String.trim part) with
        | [ a; b ] -> n + int_of_string b - int_of_string a + 1
        | [ a ] when a <> "" -> n + 1
        | _ -> n)
      0
      (String.split_on_char ',' list)
  in
  match read_file "/proc/self/status" with
  | None -> Domain.recommended_domain_count ()
  | Some status ->
      List.fold_left
        (fun acc line ->
          match String.index_opt line ':' with
          | Some k when String.sub line 0 k = "Cpus_allowed_list" ->
              (try count (String.sub line (k + 1) (String.length line - k - 1))
               with Failure _ -> acc)
          | _ -> acc)
        (Domain.recommended_domain_count ())
        (String.split_on_char '\n' status)

let provenance () =
  Printf.sprintf "commit=%s ocaml=%s word_size=%d nproc=%d recommended_domains=%d"
    (commit ()) Sys.ocaml_version Sys.word_size (nproc ())
    (Domain.recommended_domain_count ())

(* --- one run --- *)

let result_json (r : W.result) =
  let finite x = if Float.is_finite x then x else 0.0 in
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, v, unit) ->
               (name, Json.Obj [ ("value", Json.Num (finite v)); ("unit", Json.Str unit) ]))
             r.metrics) );
    ]

let run_one spec ~seed ~seconds ~trace =
  let work = Filename.concat ".tdbbench" (Printf.sprintf "run-%d" (Unix.getpid ())) in
  let spans_file =
    if trace then
      Some
        (Filename.concat ".tdbbench"
           (Printf.sprintf "spans-%s-seed%d.json" spec.W.name seed))
    else None
  in
  Printf.printf "tdbbench %s seed=%d seconds=%d trace=%d\n" spec.W.name seed seconds
    (if trace then 1 else 0);
  Printf.printf "provenance %s\n%!" (provenance ());
  let r =
    try
      W.run spec
        {
          W.seed;
          rows = spec.W.rows;
          rounds = spec.W.rounds;
          setups = 3;
          budget = W.Seconds (float_of_int seconds);
          trace;
          work;
          spans_file;
        }
    with Failure msg ->
      Printf.eprintf "tdbbench: %s\n" msg;
      exit 1
  in
  List.iter (fun (name, v, unit) -> Printf.printf "  %-32s %14.6g %s\n" name v unit) r.metrics;
  List.iter (fun n -> Printf.printf "  note: %s\n" n) r.notes;
  Option.iter (fun f -> Printf.printf "  spans: %s\n" f) spans_file;
  Printf.printf "correct=%b attempted=%d failed=%d\n" r.correct r.attempted r.failed;
  print_endline (Json.to_string (result_json r));
  if r.correct then 0 else 1

(* --- --all and --repeat: one fresh process per run --- *)

let child ~workload ~seed ~seconds ~trace =
  let args =
    [|
      Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
      "--seconds"; string_of_int seconds; "--trace"; (if trace then "1" else "0");
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  let status = Unix.close_process_in ic in
  let lines = List.filter (fun l -> String.trim l <> "") lines in
  (status, lines)

let drive workloads ~repeat ~seed ~seconds ~trace =
  let results = Hashtbl.create 16 in
  let ok = ref true in
  for r = 0 to repeat - 1 do
    let order = if r mod 2 = 0 then workloads else List.rev workloads in
    List.iter
      (fun w ->
        let status, lines = child ~workload:w ~seed:(seed + r) ~seconds ~trace in
        if repeat = 1 then List.iter print_endline lines
        else Printf.printf "run %d %s seed=%d\n%!" (r + 1) w (seed + r);
        (match status with Unix.WEXITED 0 -> () | _ -> ok := false);
        match List.rev lines with
        | last :: _ -> (
            match Json.member "metrics" (Json.parse last) with
            | Some (Json.Obj ms) ->
                List.iter
                  (fun (name, m) ->
                    match (Json.member "value" m, Json.member "unit" m) with
                    | Some (Json.Num v), Some (Json.Str u) ->
                        let key = (w, name) in
                        let vs, _ = Option.value (Hashtbl.find_opt results key) ~default:([], u) in
                        Hashtbl.replace results key (v :: vs, u)
                    | _ -> ())
                  ms
            | _ -> ok := false
            | exception Json.Bad _ -> ok := false)
        | [] -> ok := false)
      order
  done;
  if repeat > 1 then begin
    Printf.printf "\n%-18s %-32s %12s %12s %12s %8s %s\n" "workload" "metric" "q1" "median"
      "q3" "iqr/med" "unit";
    List.iter
      (fun w ->
        Hashtbl.fold (fun (w', name) v acc -> if w' = w then (name, v) :: acc else acc) results []
        |> List.sort compare
        |> List.iter (fun (name, (vs, u)) ->
               let a = Array.of_list vs in
               if Array.length a >= 2 then
                 let q1, med, q3 = Stats.quartiles a in
                 Printf.printf "%-18s %-32s %12.6g %12.6g %12.6g %8.4f %s\n" w name q1 med q3
                   (if med = 0.0 then 0.0 else (q3 -. q1) /. Float.abs med)
                   u))
      workloads
  end;
  if !ok then 0 else 1

let () =
  let workload = ref None and all = ref false and seed = ref 1 in
  let seconds = ref default_seconds and trace = ref 0 and repeat = ref 0 in
  let spec =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "NAME one workload");
      ("--all", Arg.Set all, " every workload, one process each");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S measured seconds per run");
      ("--trace", Arg.Set_int trace, "0|1 traced run: per-layer metrics");
      ("--repeat", Arg.Set_int repeat, "N runs per workload, fresh process each");
    ]
  in
  (try Arg.parse_argv Sys.argv spec (fun _ -> usage ()) "tdbbench"
   with Arg.Bad _ | Arg.Help _ -> usage ());
  refuse_overrides ();
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) || !repeat < 0 then usage ();
  let trace = !trace = 1 in
  let code =
    match (!workload, !all, !repeat) with
    | Some w, false, 0 -> (
        match W.find w with
        | Some spec -> run_one spec ~seed:!seed ~seconds:!seconds ~trace
        | None -> usage ())
    | Some w, false, n when W.find w <> None ->
        drive [ w ] ~repeat:n ~seed:!seed ~seconds:!seconds ~trace
    | None, true, n ->
        drive
          (List.map (fun s -> s.W.name) W.specs)
          ~repeat:(max 1 n) ~seed:!seed ~seconds:!seconds ~trace
    | _ -> usage ()
  in
  exit code
