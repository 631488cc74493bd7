(* Parallel query execution under concurrency.

   Two properties guard the domain-pool executor:
   - single caller: every paper query returns bit-identical rows through
     the parallel executor, and the worker-private I/O counters folded on
     join add up to exactly the sequential cold-pool read counts;
   - many callers: N domains each running the full Q01..Q12 mix against
     the same engine complete cleanly and every query's rows stay
     bit-identical to the sequential baseline. *)

module Workload = Tdb_benchkit.Workload
module Evolve = Tdb_benchkit.Evolve
module Paper_queries = Tdb_benchkit.Paper_queries
module Engine = Tdb_core.Engine
module Database = Tdb_core.Database
module Executor = Tdb_query.Executor
module Relation_file = Tdb_storage.Relation_file
module Buffer_pool = Tdb_storage.Buffer_pool
module Value = Tdb_relation.Value

let render_rows tuples =
  List.map
    (fun tu -> String.concat "|" (Array.to_list (Array.map Value.to_string tu)))
    tuples

let evolved_temporal () =
  let w = Workload.build ~kind:Workload.Temporal ~loading:100 ~seed:23 () in
  for round = 1 to 2 do
    Evolve.uniform_round w ~round
  done;
  w

(* Drop every cached frame so both executors start from a cold pool and
   their read counts are comparable. *)
let chill (w : Workload.t) =
  let db = w.Workload.db in
  List.iter
    (fun name ->
      match Database.find_relation db name with
      | Some rel -> Buffer_pool.invalidate (Relation_file.pool rel)
      | None -> ())
    (Database.relation_names db)

let queries () =
  List.filter_map
    (fun qid ->
      Option.map
        (fun src -> (Paper_queries.name qid, src))
        (Paper_queries.text qid Workload.Temporal))
    Paper_queries.all

(* Paper-scale relations sit under the admission floor; floor 0 makes
   the fan-out machinery what these tests exercise. *)
let fan_out workers = { Executor.default_config with workers; floor = 0 }

let run_query ~config (w : Workload.t) src =
  Database.reset_io w.Workload.db;
  match Engine.execute ~config w.Workload.db src with
  | Ok [ Engine.Rows { tuples; io; _ } ] ->
      (render_rows tuples, io.Executor.input_reads)
  | Ok _ -> Alcotest.failf "expected a single retrieve: %s" src
  | Error e -> Alcotest.failf "query failed (%s): %s" e src

let test_parallel_matches_sequential () =
  let w = evolved_temporal () in
  List.iter
    (fun (name, src) ->
      chill w;
      let rows_seq, reads_seq = run_query ~config:(fan_out 1) w src in
      chill w;
      let rows_par, reads_par = run_query ~config:(fan_out 4) w src in
      Alcotest.(check bool)
        (name ^ ": identical rows") true
        (rows_seq = rows_par);
      Alcotest.(check int)
        (name ^ ": folded reads match sequential")
        reads_seq reads_par)
    (queries ())

(* The same parity contract at ten times the paper's row count, with the
   admission floor dropped to zero so keyed and range probes actually fan
   out (at the default floor many stay inline).  Folded per-partition
   read counters must still equal the sequential cold-pool counts for
   every paper query. *)
let test_scale10_matches_sequential () =
  let w = Workload.build ~scale:10 ~kind:Workload.Temporal ~loading:100 ~seed:23 () in
  for round = 1 to 2 do
    Evolve.uniform_round w ~round
  done;
  List.iter
    (fun (name, src) ->
      chill w;
      let rows_seq, reads_seq = run_query ~config:(fan_out 1) w src in
      chill w;
      let rows_par, reads_par = run_query ~config:(fan_out 4) w src in
      Alcotest.(check bool)
        (name ^ " (scale 10): identical rows") true
        (rows_seq = rows_par);
      Alcotest.(check int)
        (name ^ " (scale 10): folded reads match sequential")
        reads_seq reads_par)
    (queries ())

(* A keyed probe at paper scale touches a single bucket chain, far under
   the admission floor: the planner must decline the fan-out and say so
   in \explain. *)
let test_explain_declines_small () =
  let w = Workload.build ~kind:Workload.Temporal ~loading:100 ~seed:23 () in
  (* the default floor, whatever TDB_PAR_MIN_PAGES says *)
  let config = { Executor.default_config with workers = 4; floor = 128 } in
  match
    Engine.explain ~config w.Workload.db "retrieve (h.id, h.seq) where h.id = 500"
  with
  | Error e -> Alcotest.failf "explain failed: %s" e
  | Ok text ->
      let contains needle =
        let nh = String.length text and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub text i nn = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        "explain declines the too-small fan-out" true
        (contains "parallel: declined (too small)")

let test_domain_stress () =
  let w = evolved_temporal () in
  let qs = Array.of_list (queries ()) in
  let n = Array.length qs in
  let baseline =
    Array.to_list
      (Array.map
         (fun (name, src) -> (name, fst (run_query ~config:(fan_out 1) w src)))
         qs)
  in
  (* Each domain walks the mix from its own offset, maximizing statement
     interleaving; results come back as data so all assertions run on the
     test's own domain. *)
  let run_mix k =
    List.init n (fun i ->
        let name, src = qs.((i + k) mod n) in
        (* workers > 1 and floor 0: the stress domains also fan out
           scans internally, not just interleave statements *)
        match Engine.execute ~config:(fan_out 2) w.Workload.db src with
        | Ok [ Engine.Rows { tuples; _ } ] -> (name, render_rows tuples)
        | Ok _ -> (name, [ "unexpected outcome" ])
        | Error e -> (name, [ "error: " ^ e ]))
  in
  let spawned = List.init 4 (fun k -> Domain.spawn (fun () -> run_mix (k + 1))) in
  let results = run_mix 0 :: List.map Domain.join spawned in
  List.iteri
    (fun d per_domain ->
      List.iter
        (fun (name, rows) ->
          let want = List.assoc name baseline in
          Alcotest.(check bool)
            (Printf.sprintf "domain %d, %s: rows identical to sequential" d name)
            true (rows = want))
        per_domain)
    results

let suites =
  [
    ( "parallel",
      [
        Alcotest.test_case "paper queries: parallel = sequential" `Quick
          test_parallel_matches_sequential;
        Alcotest.test_case "scale 10: parallel probes = sequential" `Slow
          test_scale10_matches_sequential;
        Alcotest.test_case "explain declines small fan-outs" `Quick
          test_explain_declines_small;
        Alcotest.test_case "domain stress: concurrent Q01..Q12 mix" `Quick
          test_domain_stress;
      ] );
  ]
