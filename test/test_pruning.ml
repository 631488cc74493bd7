(* Fence pruning must be invisible in results: every paper query returns
   the same tuples and performs the same writes with pruning on and off,
   reading at most as many pages.  Plus the ISAM range-probe boundary
   cases the skip-scan leans on. *)

module Workload = Tdb_benchkit.Workload
module Evolve = Tdb_benchkit.Evolve
module Paper_queries = Tdb_benchkit.Paper_queries
module Engine = Tdb_core.Engine
module Database = Tdb_core.Database
module Executor = Tdb_query.Executor
module Time_fence = Tdb_storage.Time_fence
module Relation_file = Tdb_storage.Relation_file
module Value = Tdb_relation.Value

let evolved_temporal ~rounds =
  let w = Workload.build ~kind:Workload.Temporal ~loading:100 ~seed:11 () in
  for round = 1 to rounds do
    Evolve.uniform_round w ~round
  done;
  w

let run_rows ~pruning (w : Workload.t) src =
  Database.reset_io w.Workload.db;
  match
    Engine.execute ~config:{ Executor.default_config with pruning }
      w.Workload.db src
  with
  | Ok [ Engine.Rows { tuples; io; _ } ] -> (tuples, io)
  | Ok _ -> Alcotest.failf "expected a single retrieve: %s" src
  | Error e -> Alcotest.failf "query failed (%s): %s" e src

(* The experiment's core property, as a test: on the evolved temporal
   database every Q01..Q12 is bit-identical pruning on vs off — same
   tuples in the same order, same page writes — and never reads more. *)
let test_grid_identical () =
  let w = evolved_temporal ~rounds:2 in
  List.iter
    (fun qid ->
      match Paper_queries.text qid Workload.Temporal with
      | None -> ()
      | Some src ->
          let name = Paper_queries.name qid in
          let rows_off, io_off = run_rows ~pruning:false w src in
          let rows_on, io_on = run_rows ~pruning:true w src in
          Alcotest.(check bool)
            (name ^ ": identical tuples") true (rows_off = rows_on);
          Alcotest.(check int)
            (name ^ ": identical writes")
            io_off.Executor.output_writes io_on.Executor.output_writes;
          Alcotest.(check bool)
            (name ^ ": reads never increase") true
            (io_on.Executor.input_reads <= io_off.Executor.input_reads))
    Paper_queries.all

(* The rollback queries bound transaction time before the evolution
   rounds: with fences on they must read strictly fewer pages, and the
   skipped pages must be charged to the raw prune counter. *)
let test_as_of_strictly_fewer () =
  let w = evolved_temporal ~rounds:2 in
  List.iter
    (fun qid ->
      let src = Option.get (Paper_queries.text qid Workload.Temporal) in
      let name = Paper_queries.name qid in
      let _, io_off = run_rows ~pruning:false w src in
      Time_fence.reset_pages_skipped ();
      let _, io_on = run_rows ~pruning:true w src in
      let skipped = Time_fence.pages_skipped () in
      Alcotest.(check bool)
        (name ^ ": strictly fewer reads") true
        (io_on.Executor.input_reads < io_off.Executor.input_reads);
      Alcotest.(check bool) (name ^ ": pages skipped") true (skipped > 0);
      Alcotest.(check bool)
        (name ^ ": reads + skips cover the unfenced scan") true
        (io_on.Executor.input_reads + skipped >= io_off.Executor.input_reads))
    Tdb_benchkit.Pruning.as_of_queries

(* ------------------------------------------------------------------ *)
(* ISAM range-probe boundary cases                                     *)
(* ------------------------------------------------------------------ *)

(* 64 tuples at 8 per page and 100% loading: data pages hold keys
   [0..7], [8..15], ..., [56..63], so page edges are the multiples of 8. *)
let isam_rel () =
  let schema = Workload.schema_for Workload.Static in
  let rel = Relation_file.create ~name:"range_probe" ~schema () in
  for k = 0 to 63 do
    ignore
      (Relation_file.insert rel
         [| Value.Int k; Value.Int (k * 10); Value.Int 0; Value.Str "x" |])
  done;
  Relation_file.modify rel (Relation_file.Isam { key_attr = 0; fillfactor = 100 });
  rel

let range_keys rel ?lo ?hi () =
  let acc = ref [] in
  Relation_file.lookup_range rel ?lo ?hi (fun _ tu ->
      match tu.(0) with
      | Value.Int k -> acc := k :: !acc
      | _ -> Alcotest.fail "non-integer key");
  List.rev !acc

let check_range rel ?lo ?hi label =
  let within k =
    (match lo with Some (Value.Int l) -> k >= l | _ -> true)
    && match hi with Some (Value.Int h) -> k <= h | _ -> true
  in
  let expected = List.filter within (List.init 64 Fun.id) in
  Alcotest.(check (list int)) label expected (range_keys rel ?lo ?hi ())

let test_range_probe_boundaries () =
  let rel = isam_rel () in
  check_range rel "open both bounds";
  check_range rel ~lo:(Value.Int 20) "open hi";
  check_range rel ~hi:(Value.Int 20) "open lo";
  check_range rel ~lo:(Value.Int 0) ~hi:(Value.Int 63) "exact full range";
  check_range rel ~lo:(Value.Int 8) ~hi:(Value.Int 15) "one whole page";
  check_range rel ~lo:(Value.Int 7) ~hi:(Value.Int 8) "straddles a page edge";
  check_range rel ~lo:(Value.Int 15) ~hi:(Value.Int 16) "straddles the next edge";
  check_range rel ~lo:(Value.Int 0) ~hi:(Value.Int 0) "first key alone";
  check_range rel ~lo:(Value.Int 63) ~hi:(Value.Int 63) "last key alone";
  check_range rel ~lo:(Value.Int 56) "lo at the last page's edge";
  check_range rel ~hi:(Value.Int 55) "hi just below the last page"

let test_range_probe_empty () =
  let rel = isam_rel () in
  check_range rel ~lo:(Value.Int 30) ~hi:(Value.Int 20) "inverted bounds";
  check_range rel ~lo:(Value.Int 64) "lo beyond every key";
  check_range rel ~lo:(Value.Int 64) ~hi:(Value.Int 100) "range beyond every key";
  check_range rel ~hi:(Value.Int (-1)) "hi below every key"

let suites =
  [
    ( "pruning",
      [
        Alcotest.test_case "Q01..Q12 identical on vs off" `Quick
          test_grid_identical;
        Alcotest.test_case "as-of queries strictly cheaper" `Quick
          test_as_of_strictly_fewer;
        Alcotest.test_case "ISAM range probe boundaries" `Quick
          test_range_probe_boundaries;
        Alcotest.test_case "ISAM range probe empty ranges" `Quick
          test_range_probe_empty;
      ] );
  ]
