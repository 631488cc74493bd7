(* Tests of the benchmark harness itself: seeded inputs, the order
   statistics it reports, span arithmetic, the API list, and a short
   pass of every workload with all results checked. *)

open Tdbbench_core

(* --- generator determinism --- *)

let stream_digest (spec : Workload.spec) ~seed ~n =
  let tables =
    let h = Gen.table ~seed ~rows:spec.Workload.rows Model.H in
    let i = Gen.table ~seed ~rows:spec.Workload.rows Model.I in
    function Model.H -> h | Model.I -> i
  in
  let next = spec.Workload.stream ~seed ~rows:spec.Workload.rows ~tables in
  Digest.to_hex (Digest.string (String.concat "\n" (List.init n (fun _ -> Gen.text (next ())))))

let test_determinism () =
  List.iter
    (fun w ->
      let a = Gen.table ~seed:7 ~rows:300 w and b = Gen.table ~seed:7 ~rows:300 w in
      Alcotest.(check bool) "same seed, same table" true (a = b);
      Alcotest.(check bool)
        "another seed, another table" false
        (a = Gen.table ~seed:8 ~rows:300 w))
    [ Model.H; Model.I ];
  List.iter
    (fun spec ->
      let name = spec.Workload.name in
      Alcotest.(check string)
        (name ^ ": same seed, same stream")
        (stream_digest spec ~seed:3 ~n:500)
        (stream_digest spec ~seed:3 ~n:500);
      Alcotest.(check bool)
        (name ^ ": another seed, another stream")
        false
        (stream_digest spec ~seed:3 ~n:500 = stream_digest spec ~seed:4 ~n:500))
    Workload.specs

(* --- order statistics --- *)

let test_tail_rule () =
  Alcotest.(check int) "p99 of 1000 leaves 10 beyond" 10 (Stats.beyond ~p:0.99 1000);
  Alcotest.(check bool) "p99 of 1000 is a tail" true (Stats.tail_supported ~p:0.99 1000);
  Alcotest.(check bool) "p99 of 999 is not" false (Stats.tail_supported ~p:0.99 999);
  Alcotest.(check bool) "p95 of 200 is a tail" true (Stats.tail_supported ~p:0.95 200);
  Alcotest.(check bool) "p95 of 199 is not" false (Stats.tail_supported ~p:0.95 199);
  let a = Array.init 101 float_of_int in
  Alcotest.(check (float 1e-9)) "median" 50.0 (Stats.median a);
  Alcotest.(check (float 1e-9)) "p99 interpolates" 99.0 (Stats.percentile a 0.99);
  Alcotest.(check (float 1e-9)) "p97.5 interpolates" 97.5 (Stats.percentile a 0.975)

(* Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
   and statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]. *)
let test_quartiles () =
  let q1, q2, q3 = Stats.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list (float 1e-9))) "1..10" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ];
  let q1, q2, q3 = Stats.quartiles [| 3.0; 1.0; 2.0 |] in
  Alcotest.(check (list (float 1e-9))) "three values" [ 1.0; 2.0; 3.0 ] [ q1; q2; q3 ]

(* --- spans --- *)

let test_self_time () =
  let s name parent t0 t1 = { Spans.name; parent; t0; t1 } in
  let spans =
    [|
      s "statement" (-1) 0 100;
      s "a" 0 10 30;
      s "b" 0 20 50 (* overlaps a: only the union counts *);
      s "c" 0 60 70;
      s "a.child" 1 12 15;
      s "late" 0 95 120 (* runs past the root: clipped *);
    |]
  in
  Alcotest.(check (array int))
    "self times" [| 45; 17; 30; 10; 3; 25 |] (Spans.self_times spans);
  let u = Spans.union [ (5, 8); (1, 3); (2, 4); (10, 10) ] in
  Alcotest.(check (array (pair int int))) "union" [| (1, 4); (5, 8) |] u;
  Alcotest.(check (list bool))
    "meets"
    [ true; false; true; false; true ]
    (List.map (fun (a, b) -> Spans.meets u a b) [ (0, 2); (4, 5); (7, 20); (8, 9); (3, 6) ]);
  let r = Spans.create () in
  Spans.record r [| s "statement" (-1) 0 10; s "tquel.parse" 0 0 4 |];
  Spans.record r [| s "statement" (-1) 20 26; s "tquel.parse" 0 21 23 |];
  Alcotest.(check (triple int int int))
    "root totals" (10, 16, 2) (Spans.total [ r ] "statement");
  Alcotest.(check (triple int int int))
    "step totals" (6, 6, 2) (Spans.total [ r ] "tquel.parse")

(* --- the API surface: the README lists exactly what the adapter calls --- *)

let test_api_listed () =
  let readme = In_channel.with_open_text "../README.md" In_channel.input_all in
  let listed =
    String.split_on_char '\n' readme
    |> List.filter_map (fun l ->
           let p = "- `" in
           if String.length l > 4 && String.sub l 0 3 = p && l.[String.length l - 1] = '`'
           then Some (String.sub l 3 (String.length l - 4))
           else None)
    |> List.filter (fun l -> String.length l > 4 && String.sub l 0 4 = "Tdb_")
  in
  Alcotest.(check (list string)) "README lists the adapter's API" Adapter.api listed

(* --- a short pass of every workload --- *)

let e2e_names =
  [
    "setup_s"; "stmts_per_s"; "read_p50_ms"; "read_tail_ms"; "write_p50_ms";
    "write_tail_ms"; "writes_per_s"; "input_pages_per_stmt"; "bytes_per_user_byte";
    "peak_heap_mb";
  ]

let smoke ?(trace = false) (spec : Workload.spec) =
  (* Small relations so a pass takes well under a second; the paper
     workload needs its probe ids (500, 700) so keeps 1024 rows. *)
  let rows = if spec.Workload.name = "paper-uc15" then 1024 else 512 in
  Workload.run spec
    {
      Workload.seed = 5;
      rows;
      rounds = 1;
      setups = 1;
      budget = Workload.Statements 50;
      trace;
      work = ".tdbbench-test-" ^ spec.Workload.name;
      spans_file = None;
    }

let test_smoke spec () =
  let r = smoke spec in
  Alcotest.(check int) "no failures" 0 r.Workload.failed;
  Alcotest.(check bool) "correct" true r.Workload.correct;
  Alcotest.(check bool) "attempted at least 50" true (r.Workload.attempted >= 50);
  Alcotest.(check (list string))
    "every end-to-end metric" e2e_names
    (List.map (fun (n, _, _) -> n) r.Workload.metrics);
  List.iter
    (fun (n, v, _) ->
      if not (Float.is_finite v) then Alcotest.failf "%s is not finite" n)
    r.Workload.metrics;
  Alcotest.(check bool)
    "work directory removed" false
    (Sys.file_exists (".tdbbench-test-" ^ spec.Workload.name))

let test_smoke_traced spec () =
  let r = smoke ~trace:true spec in
  Alcotest.(check bool) "correct" true r.Workload.correct;
  let get name =
    match List.find_opt (fun (n, _, _) -> n = name) r.Workload.metrics with
    | Some (_, v, _) -> v
    | None -> Alcotest.failf "missing %s" name
  in
  Alcotest.(check bool) "parse time measured" true (get "tquel.parse_us" > 0.0);
  Alcotest.(check bool)
    "layers account for the statement" true
    (get "trace.unaccounted_frac" <= 0.05);
  Alcotest.(check bool)
    "no end-to-end metric in a traced run" false
    (List.exists (fun (n, _, _) -> n = "setup_s") r.Workload.metrics)

let () =
  Alcotest.run "tdbbench"
    [
      ( "harness",
        [
          Alcotest.test_case "generator determinism" `Quick test_determinism;
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "quartiles as Python computes them" `Quick test_quartiles;
          Alcotest.test_case "span self time" `Quick test_self_time;
          Alcotest.test_case "API surface listed" `Quick test_api_listed;
        ] );
      ( "smoke",
        List.map
          (fun spec -> Alcotest.test_case spec.Workload.name `Quick (test_smoke spec))
          Workload.specs
        @ List.map
            (fun name ->
              Alcotest.test_case (name ^ " traced") `Quick
                (test_smoke_traced (Option.get (Workload.find name))))
            [ "paper-uc15"; "keyed-rw-sessions" ] );
    ]
