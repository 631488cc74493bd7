module Workload = Tdb_benchkit.Workload
module Evolve = Tdb_benchkit.Evolve
module Paper_queries = Tdb_benchkit.Paper_queries
module Cost_model = Tdb_benchkit.Cost_model
module Report = Tdb_benchkit.Report
module Relation_file = Tdb_storage.Relation_file

let test_workload_shapes () =
  let w = Workload.build ~kind:Workload.Temporal ~loading:100 ~seed:42 () in
  Alcotest.(check int) "h = 128 pages" 128
    (Relation_file.npages (Workload.h_rel w));
  Alcotest.(check int) "i = 129 pages (128 data + directory)" 129
    (Relation_file.npages (Workload.i_rel w));
  Alcotest.(check int) "1024 tuples in h" 1024
    (Relation_file.tuple_count (Workload.h_rel w));
  let w50 = Workload.build ~kind:Workload.Static ~loading:50 ~seed:42 () in
  Alcotest.(check int) "static 50%: 1024 tuples" 1024
    (Relation_file.tuple_count (Workload.h_rel w50))

let test_workload_deterministic () =
  let a = Workload.build ~kind:Workload.Rollback ~loading:100 ~seed:7 () in
  let b = Workload.build ~kind:Workload.Rollback ~loading:100 ~seed:7 () in
  let dump w =
    let acc = ref [] in
    Relation_file.scan (Workload.h_rel w) (fun _ tu ->
        acc := Array.map Tdb_relation.Value.to_string tu :: !acc);
    !acc
  in
  Alcotest.(check bool) "same seed, same data" true (dump a = dump b);
  let c = Workload.build ~kind:Workload.Rollback ~loading:100 ~seed:8 () in
  Alcotest.(check bool) "different seed, different data" true (dump a <> dump c)

let test_query_applicability () =
  let count kind =
    List.length
      (List.filter (fun q -> Paper_queries.text q kind <> None) Paper_queries.all)
  in
  Alcotest.(check int) "static: 8 queries" 8 (count Workload.Static);
  Alcotest.(check int) "rollback: 10 queries" 10 (count Workload.Rollback);
  Alcotest.(check int) "historical: 8 queries" 8 (count Workload.Historical);
  Alcotest.(check int) "temporal: all 12" 12 (count Workload.Temporal)

let test_queries_parse_and_check () =
  (* every applicable query text must pass the parser and the checker on
     its database *)
  List.iter
    (fun kind ->
      let w = Workload.build ~kind ~loading:100 ~seed:3 () in
      List.iter
        (fun qid ->
          match Paper_queries.text qid kind with
          | None -> ()
          | Some src ->
              let _cost, _rows = Evolve.measure_query_result w src in
              ())
        Paper_queries.all)
    [ Workload.Static; Workload.Rollback; Workload.Historical; Workload.Temporal ]

let test_q01_law () =
  (* the paper's headline law on the real workload: Q01 costs 1 + 2n *)
  let w = Workload.build ~kind:Workload.Temporal ~loading:100 ~seed:5 () in
  let q01 = Option.get (Paper_queries.text Paper_queries.Q01 Workload.Temporal) in
  Alcotest.(check int) "UC 0" 1 (Evolve.measure_query w q01);
  Evolve.uniform_round w ~round:1;
  Alcotest.(check int) "UC 1" 3 (Evolve.measure_query w q01);
  Evolve.uniform_round w ~round:2;
  Alcotest.(check int) "UC 2" 5 (Evolve.measure_query w q01)

let test_q05_single_row () =
  let w = Workload.build ~kind:Workload.Temporal ~loading:100 ~seed:5 () in
  Evolve.uniform_round w ~round:1;
  let q05 = Option.get (Paper_queries.text Paper_queries.Q05 Workload.Temporal) in
  let _cost, rows = Evolve.measure_query_result w q05 in
  Alcotest.(check int) "one current version" 1 rows

let test_section54_worked_example () =
  (* The paper's own calculation: "if we update one tuple in a temporal
     relation 1024 times, the average update count becomes one ... a hashed
     access to any tuple sharing the same page as the changed tuple costs
     257 page accesses, while a hashed access to any tuple residing on a
     page without an overflow costs just one page access.  Therefore, the
     average cost becomes three page accesses." *)
  let w = Workload.build ~kind:Workload.Temporal ~loading:100 ~seed:11 () in
  Evolve.non_uniform_round w ~round:1 ~key:500;
  let hot = Evolve.hashed_access_cost w ~key:500 in
  Alcotest.(check int) "hot bucket chain = 257 pages" 257 hot;
  let bucketmate = Evolve.hashed_access_cost w ~key:(500 - 128) in
  Alcotest.(check int) "bucket mates pay the same chain" 257 bucketmate;
  let cold = Evolve.hashed_access_cost w ~key:3 in
  Alcotest.(check int) "other tuples cost one page" 1 cold;
  let total = ref 0 in
  for key = 0 to 1023 do
    total := !total + Evolve.hashed_access_cost w ~key
  done;
  Alcotest.(check int) "average is exactly three pages" 3 (!total / 1024)

let test_growth_rates () =
  Alcotest.(check (float 0.001)) "static" 0.
    (Cost_model.growth_rate Workload.Static ~loading:100);
  Alcotest.(check (float 0.001)) "rollback 100" 1.0
    (Cost_model.growth_rate Workload.Rollback ~loading:100);
  Alcotest.(check (float 0.001)) "historical 50" 0.5
    (Cost_model.growth_rate Workload.Historical ~loading:50);
  Alcotest.(check (float 0.001)) "temporal 100" 2.0
    (Cost_model.growth_rate Workload.Temporal ~loading:100);
  Alcotest.(check (float 0.001)) "temporal 50" 1.0
    (Cost_model.growth_rate Workload.Temporal ~loading:50)

let test_decompose_predict () =
  (* a synthetic query with fixed 2, variable 129, on a temporal db at
     100% loading: cost(n) = 2 + 129*(1+2n) *)
  let cost n = 2 + (129 * (1 + (2 * n))) in
  let d =
    Cost_model.decompose ~kind:Workload.Temporal ~loading:100 ~cost0:(cost 0)
      ~cost_n:(cost 14) ~n:14
  in
  Alcotest.(check (float 0.01)) "fixed" 2. d.Cost_model.fixed;
  Alcotest.(check (float 0.01)) "variable" 129. d.Cost_model.variable;
  for n = 0 to 15 do
    Alcotest.(check (float 0.01))
      (Printf.sprintf "predict %d" n)
      (float_of_int (cost n))
      (Cost_model.predict d n)
  done

let test_report_table () =
  let t = Report.table ~header:[ "a"; "b" ] [ [ "1"; "22" ]; [ "333"; "4" ] ] in
  Alcotest.(check bool) "contains cells" true
    (let contains sub =
       let n = String.length sub in
       let rec go i =
         i + n <= String.length t && (String.sub t i n = sub || go (i + 1))
       in
       go 0
     in
     contains "333" && contains "| a" || contains "|   a" || String.length t > 0)

let test_report_plot () =
  let p =
    Report.plot ~title:"test" ~series:[ ("up", [ (0, 0); (5, 100); (10, 200) ]) ] ()
  in
  Alcotest.(check bool) "plot renders" true (String.length p > 100)

(* --- the shared metrics schema (\metrics json and bench --json) --- *)

module Json = Tdb_obs.Json
module Metric = Tdb_obs.Metric
module Obs_json = Tdb_benchkit.Obs_json
module Compare = Tdb_benchkit.Compare

let test_obs_json_schema () =
  (* the live dump round-trips through the validator *)
  Metric.incr (Metric.counter "test_benchkit_schema_total");
  (match Obs_json.validate (Obs_json.metrics ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Json.parse (Json.to_string (Obs_json.metrics ())) with
  | Ok v -> (
      match Obs_json.validate v with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("parsed dump rejected: " ^ e))
  | Error e -> Alcotest.fail e);
  (* malformed documents are rejected with a reason *)
  let rejected doc =
    match Obs_json.validate doc with Ok () -> false | Error _ -> true
  in
  Alcotest.(check bool) "non-list rejected" true (rejected (Json.Obj []));
  Alcotest.(check bool) "missing labels rejected" true
    (rejected
       (Json.List [ Json.Obj [ ("name", Json.Str "x"); ("value", Json.int 1) ] ]));
  Alcotest.(check bool) "string value rejected" true
    (rejected
       (Json.List
          [
            Json.Obj
              [
                ("name", Json.Str "x");
                ("labels", Json.Obj []);
                ("value", Json.Str "1");
              ];
          ]));
  Alcotest.(check bool) "empty name rejected" true
    (rejected
       (Json.List
          [
            Json.Obj
              [
                ("name", Json.Str "");
                ("labels", Json.Obj []);
                ("value", Json.int 1);
              ];
          ]))

(* --- the bench trend harness --- *)

(* A minimal document that passes every internal gate, with knobs for the
   fields the tests perturb. *)
let bench_doc ?(max_uc = 3) ?(smoke = false) ?(h_pages = 7) ?(overhead = 0.5)
    ?(scale_domains = 1) ?(scale1_speedup = 1.0)
    ?(scale10_speedup = 2.5) ?(cy_domains = 1) ?(cy_speedup = 2.5)
    ?(cy_rate4 = 400.0) ?(tj_domains = 1) ?(tj_speedup = 3.0)
    ?(tj_off = 1.0) ?(tj_identical = true) () =
  let concurrency_cell ~readers ~mode ~rate =
    Json.Obj
      [
        ("readers", Json.int readers);
        ("writers", Json.int 1);
        ("mode", Json.Str mode);
        ("reader_stmts", Json.int (int_of_float rate));
        ("reader_stmts_per_s", Json.Num rate);
        ("p50_ms", Json.Num 0.1);
        ("p99_ms", Json.Num 0.5);
        ("writer_stmts", Json.int 50);
      ]
  in
  let scale_query ~sc ~speedup =
    Json.Obj
      [
        ("query", Json.Str "Q03");
        ("scale", Json.int sc);
        ("identical", Json.Bool true);
        ( "cells",
          Json.List
            (List.map
               (fun (w, s) ->
                 Json.Obj
                   [
                     ("workers", Json.int w);
                     ("wall_s", Json.Num (0.1 /. s));
                     ("speedup", Json.Num s);
                     ("identical", Json.Bool true);
                   ])
               [ (1, 1.0); (4, speedup) ]) );
      ]
  in
  Json.Obj
    [
      ( "meta",
        Json.Obj
          [
            ("max_uc", Json.int max_uc);
            ("seed", Json.int 850331);
            ("smoke", Json.Bool smoke);
            ("scale", Json.int 1);
          ] );
      ( "sections",
        Json.List
          [
            Json.Obj [ ("label", Json.Str "grid"); ("wall_s", Json.Num 1.0) ];
          ] );
      ( "grid",
        Json.List
          [
            Json.Obj
              [
                ("kind", Json.Str "temporal");
                ("loading", Json.int 100);
                ( "cells",
                  Json.List
                    [
                      Json.Obj
                        [ ("h_pages", Json.int h_pages); ("i_pages", Json.int 9) ];
                    ] );
              ];
          ] );
      ( "pruning",
        Json.Obj
          [
            ("all_identical", Json.Bool true);
            ( "as_of",
              Json.Obj
                [
                  ("queries", Json.int 4);
                  ("skipped", Json.int 10);
                  ("worst_ratio", Json.Num 0.4);
                ] );
          ] );
      ( "parallel",
        Json.Obj
          [
            ("recommended_domains", Json.int 1);
            ( "queries",
              Json.List
                [
                  Json.Obj
                    [
                      ("query", Json.Str "Q03");
                      ("uc", Json.int max_uc);
                      ("identical", Json.Bool true);
                      ( "cells",
                        Json.List
                          [
                            Json.Obj
                              [
                                ("workers", Json.int 4);
                                ("wall_s", Json.Num 0.1);
                                ("speedup", Json.Num 2.0);
                                ("identical", Json.Bool true);
                              ];
                          ] );
                    ];
                ] );
          ] );
      ( "scale",
        Json.Obj
          [
            ("recommended_domains", Json.int scale_domains);
            ("scales", Json.List [ Json.int 1; Json.int 10 ]);
            ("workers", Json.List [ Json.int 1; Json.int 4 ]);
            ("rounds", Json.int 2);
            ( "queries",
              Json.List
                [
                  scale_query ~sc:1 ~speedup:scale1_speedup;
                  scale_query ~sc:10 ~speedup:scale10_speedup;
                ] );
          ] );
      ( "durability",
        Json.Obj
          [
            ("identical", Json.Bool true);
            ("overhead_vs_sync_per_stmt", Json.Num overhead);
            ("ceiling", Json.Num 1.0);
            ( "phases",
              Json.List
                (List.init 4 (fun i ->
                     Json.Obj
                       [
                         ("phase", Json.Str (Printf.sprintf "p%d" i));
                         ("journal_s", Json.Num 0.1);
                       ])) );
          ] );
      ( "concurrency",
        Json.Obj
          [
            ("recommended_domains", Json.int cy_domains);
            ("duration_s", Json.Num 1.0);
            ("speedup_4r_vs_1r", Json.Num cy_speedup);
            ( "cells",
              Json.List
                [
                  concurrency_cell ~readers:1 ~mode:"snapshot"
                    ~rate:(cy_rate4 /. cy_speedup);
                  concurrency_cell ~readers:4 ~mode:"snapshot" ~rate:cy_rate4;
                  concurrency_cell ~readers:4 ~mode:"serialized"
                    ~rate:(cy_rate4 /. 2.0);
                ] );
          ] );
      ( "tjoin",
        Json.Obj
          [
            ("recommended_domains", Json.int tj_domains);
            ("noise_floor_s", Json.Num 0.05);
            ( "queries",
              Json.List
                [
                  Json.Obj
                    [
                      ("query", Json.Str "Q09c");
                      ("uc", Json.int 0);
                      ("scale", Json.int 1);
                      ("rows", Json.int 5);
                      ("off_wall_s", Json.Num tj_off);
                      ("on_wall_s", Json.Num (tj_off /. tj_speedup));
                      ("speedup", Json.Num tj_speedup);
                      ("identical", Json.Bool tj_identical);
                    ];
                ] );
          ] );
      ( "metrics",
        Json.List
          [
            Json.Obj
              [
                ("name", Json.Str "tdb_test_total");
                ("labels", Json.Obj []);
                ("value", Json.int 1);
              ];
          ] );
    ]

let mentions outcome needle =
  List.exists
    (fun f ->
      let n = String.length needle in
      let rec go i =
        i + n <= String.length f && (String.sub f i n = needle || go (i + 1))
      in
      go 0)
    outcome.Compare.failures

let test_compare_identical_docs () =
  let doc = bench_doc () in
  let o = Compare.compare_docs ~old_label:"a" ~new_label:"b" doc doc in
  Alcotest.(check (list string)) "no failures" [] o.Compare.failures;
  Alcotest.(check (list string)) "no warnings" [] o.Compare.warnings

let test_compare_grid_divergence () =
  let o =
    Compare.compare_docs ~old_label:"a" ~new_label:"b" (bench_doc ())
      (bench_doc ~h_pages:8 ())
  in
  Alcotest.(check bool) "a cell change is a hard failure" true
    (o.Compare.failures <> []);
  Alcotest.(check bool) "failure names the grid" true (mentions o "grid")

let test_compare_smoke_runs_skip_grid () =
  (* a smoke run is incomparable on the grid but still passes through the
     internal gates *)
  let o =
    Compare.compare_docs ~old_label:"full" ~new_label:"smoke" (bench_doc ())
      (bench_doc ~max_uc:1 ~smoke:true ~h_pages:99 ())
  in
  Alcotest.(check (list string)) "grid skipped, gates pass" []
    o.Compare.failures

let test_compare_durability_gate () =
  let o =
    Compare.compare_docs ~old_label:"a" ~new_label:"b" (bench_doc ())
      (bench_doc ~overhead:1.4 ())
  in
  Alcotest.(check bool) "overhead past the ceiling fails" true
    (mentions o "durability");
  (* drift within the ceiling only warns *)
  let o' =
    Compare.compare_docs ~old_label:"a" ~new_label:"b"
      (bench_doc ~overhead:0.2 ())
      (bench_doc ~overhead:0.9 ())
  in
  Alcotest.(check (list string)) "within ceiling: no failure" []
    o'.Compare.failures;
  Alcotest.(check bool) "but drift warns" true (o'.Compare.warnings <> [])

let test_compare_concurrency_gates () =
  (* on a small machine the reader-scaling floor self-skips *)
  let small =
    Compare.compare_docs ~old_label:"a" ~new_label:"b" (bench_doc ())
      (bench_doc ~cy_domains:1 ~cy_speedup:1.1 ())
  in
  Alcotest.(check (list string)) "1 domain: floor skipped" []
    small.Compare.failures;
  (* with >= 4 domains, sub-floor reader scaling is a hard failure *)
  let flat =
    Compare.compare_docs ~old_label:"a" ~new_label:"b" (bench_doc ())
      (bench_doc ~cy_domains:4 ~cy_speedup:1.1 ())
  in
  Alcotest.(check bool) "4 domains below the floor fails" true
    (mentions flat "concurrency");
  let fast =
    Compare.compare_docs ~old_label:"a" ~new_label:"b" (bench_doc ())
      (bench_doc ~cy_domains:4 ~cy_speedup:3.0 ())
  in
  Alcotest.(check (list string)) "4 domains above the floor passes" []
    fast.Compare.failures;
  (* a throughput collapse on the 4r snapshot cell warns, never fails *)
  let drift =
    Compare.compare_docs ~old_label:"a" ~new_label:"b"
      (bench_doc ~cy_rate4:400.0 ())
      (bench_doc ~cy_rate4:40.0 ())
  in
  Alcotest.(check (list string)) "drop is not a hard failure" []
    drift.Compare.failures;
  Alcotest.(check bool) "but it warns" true (drift.Compare.warnings <> [])

let test_compare_tjoin_gates () =
  (* row divergence between the strategies is a hard failure anywhere *)
  let diverged =
    Compare.compare_docs ~old_label:"a" ~new_label:"b" (bench_doc ())
      (bench_doc ~tj_identical:false ())
  in
  Alcotest.(check bool) "diverging rows fail" true (mentions diverged "tjoin");
  (* on a small machine the speedup floor self-skips *)
  let small =
    Compare.compare_docs ~old_label:"a" ~new_label:"b" (bench_doc ())
      (bench_doc ~tj_domains:1 ~tj_speedup:1.1 ())
  in
  Alcotest.(check (list string)) "1 domain: floor skipped" []
    small.Compare.failures;
  (* with the cores and a nested wall past the noise floor, sub-2x fails *)
  let slow =
    Compare.compare_docs ~old_label:"a" ~new_label:"b" (bench_doc ())
      (bench_doc ~tj_domains:4 ~tj_speedup:1.1 ())
  in
  Alcotest.(check bool) "4 domains below the floor fails" true
    (mentions slow "tjoin");
  (* a sub-noise nested wall keeps the gate off whatever the ratio *)
  let tiny =
    Compare.compare_docs ~old_label:"a" ~new_label:"b" (bench_doc ())
      (bench_doc ~tj_domains:4 ~tj_speedup:0.9 ~tj_off:0.001 ())
  in
  Alcotest.(check (list string)) "sub-noise cell: floor skipped" []
    tiny.Compare.failures;
  (* a speedup collapse against the old document warns, never fails *)
  let drift =
    Compare.compare_docs ~old_label:"a" ~new_label:"b"
      (bench_doc ~tj_speedup:10.0 ())
      (bench_doc ~tj_speedup:2.5 ())
  in
  Alcotest.(check (list string)) "speedup drop is not a hard failure" []
    drift.Compare.failures;
  Alcotest.(check bool) "but it warns" true (drift.Compare.warnings <> [])

let test_compare_scale_gates () =
  (* on a small machine the speedup gates self-skip *)
  let small = bench_doc ~scale10_speedup:1.2 ~scale1_speedup:0.5 () in
  let o = Compare.compare_docs ~old_label:"a" ~new_label:"b" small small in
  Alcotest.(check (list string)) "gates skipped below 4 domains" []
    o.Compare.failures;
  (* with cores to spend, scale >= 10 must clear 2x at 4 workers *)
  let o =
    Compare.compare_docs ~old_label:"a" ~new_label:"b" (bench_doc ())
      (bench_doc ~scale_domains:4 ~scale10_speedup:1.5 ())
  in
  Alcotest.(check bool) "slow scale-10 speedup fails" true (mentions o "scale");
  (* and scale 1 must never dip below 0.9x *)
  let o =
    Compare.compare_docs ~old_label:"a" ~new_label:"b" (bench_doc ())
      (bench_doc ~scale_domains:4 ~scale1_speedup:0.5 ())
  in
  Alcotest.(check bool) "scale-1 regression fails" true (mentions o "scale");
  (* a healthy 4-core document passes both *)
  let o =
    Compare.compare_docs ~old_label:"a" ~new_label:"b" (bench_doc ())
      (bench_doc ~scale_domains:4 ())
  in
  Alcotest.(check (list string)) "healthy doc passes" [] o.Compare.failures

let test_compare_trend_tables () =
  let o =
    Compare.compare_docs ~old_label:"a" ~new_label:"b" (bench_doc ())
      (bench_doc ())
  in
  let has needle =
    let n = String.length needle in
    let s = o.Compare.report in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "parallel trend printed" true (has "parallel trend");
  Alcotest.(check bool) "scale trend printed" true (has "scale trend")

let suites =
  [
    ( "benchkit",
      [
        Alcotest.test_case "workload shapes" `Quick test_workload_shapes;
        Alcotest.test_case "workload deterministic" `Quick test_workload_deterministic;
        Alcotest.test_case "query applicability" `Quick test_query_applicability;
        Alcotest.test_case "queries run everywhere" `Slow
          test_queries_parse_and_check;
        Alcotest.test_case "Q01 law (1 + 2n)" `Slow test_q01_law;
        Alcotest.test_case "Q05 single row" `Slow test_q05_single_row;
        Alcotest.test_case "5.4 worked example" `Slow test_section54_worked_example;
        Alcotest.test_case "growth rates" `Quick test_growth_rates;
        Alcotest.test_case "decompose/predict" `Quick test_decompose_predict;
        Alcotest.test_case "report table" `Quick test_report_table;
        Alcotest.test_case "report plot" `Quick test_report_plot;
        Alcotest.test_case "metrics schema" `Quick test_obs_json_schema;
        Alcotest.test_case "compare: identical docs" `Quick
          test_compare_identical_docs;
        Alcotest.test_case "compare: grid divergence" `Quick
          test_compare_grid_divergence;
        Alcotest.test_case "compare: smoke runs skip the grid" `Quick
          test_compare_smoke_runs_skip_grid;
        Alcotest.test_case "compare: durability gates" `Quick
          test_compare_durability_gate;
        Alcotest.test_case "compare: concurrency gates" `Quick
          test_compare_concurrency_gates;
        Alcotest.test_case "compare: tjoin gates" `Quick
          test_compare_tjoin_gates;
        Alcotest.test_case "compare: scale gates" `Quick
          test_compare_scale_gates;
        Alcotest.test_case "compare: trend tables" `Quick
          test_compare_trend_tables;
      ] );
  ]
