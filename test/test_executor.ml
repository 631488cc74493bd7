(* Plan selection and page-I/O accounting of the query executor, checked
   against the paper's analysis of how each benchmark query is processed
   (section 5.3). *)

module Engine = Tdb_core.Engine
module Database = Tdb_core.Database
module Plan = Tdb_query.Plan
module Executor = Tdb_query.Executor
module Value = Tdb_relation.Value
module Chronon = Tdb_time.Chronon
module Clock = Tdb_time.Clock

let ok = function Ok v -> v | Error e -> Alcotest.failf "unexpected error: %s" e
let exec db src = ignore (ok (Engine.execute db src))

(* A miniature version of the paper's temporal database: 64 tuples so the
   exact page counts are easy to derive (8 tuples/page at 100% loading ->
   8 data pages). *)
let small_temporal () =
  let db = ok (Database.create ()) in
  exec db
    {|create persistent interval th (id = i4, amount = i4, seq = i4, string = c96)
      create persistent interval ti (id = i4, amount = i4, seq = i4, string = c96)
      range of h is th
      range of i is ti|};
  for k = 0 to 63 do
    exec db
      (Printf.sprintf {|append to th (id = %d, amount = %d, seq = 0, string = "x")|}
         k (k * 10));
    exec db
      (Printf.sprintf {|append to ti (id = %d, amount = %d, seq = 0, string = "y")|}
         k ((k * 7) mod 64))
  done;
  exec db "modify th to hash on id where fillfactor = 100";
  exec db "modify ti to isam on id where fillfactor = 100";
  db

type rows = {
  tuples : Tdb_relation.Tuple.t list;
  io : Executor.io_summary;
  plan : Plan.t;
}

let query ?config db src =
  Database.reset_io db;
  match ok (Engine.execute_one ?config db src) with
  | Engine.Rows { tuples; io; plan; _ } -> { tuples; io; plan }
  | _ -> Alcotest.fail "expected rows"

let plan_of ?config db src = Plan.to_string (query ?config db src).plan
let cost_of db src = (query db src).io.Executor.input_reads

let test_plan_selection () =
  let db = small_temporal () in
  Alcotest.(check string) "keyed hash probe" "fence[tx](keyed(h))"
    (plan_of db "retrieve (h.id) where h.id = 5");
  Alcotest.(check string) "keyed isam probe" "fence[tx](keyed(i))"
    (plan_of db "retrieve (i.id) where i.id = 5");
  Alcotest.(check string) "non-key predicate scans" "fence[tx](scan(h))"
    (plan_of db "retrieve (h.id) where h.amount = 50");
  Alcotest.(check string) "tuple substitution (Q09 shape)"
    "detach(i) then substitute into h via i.amount"
    (plan_of db
       {|retrieve (h.id, i.id) where h.id = i.amount
         when h overlap i and i overlap "now"|});
  Alcotest.(check string) "reverse substitution (Q10 shape)"
    "detach(h) then substitute into i via h.amount"
    (plan_of db
       {|retrieve (i.id, h.id) where i.id = h.amount
         when h overlap i and h overlap "now"|});
  let tjoin temporal_join = { Executor.default_config with temporal_join } in
  let q11 =
    {|retrieve (h.id, i.id)
      valid from start of h to end of i
      when start of h precede i|}
  in
  let q12 =
    {|retrieve (h.id, i.id)
      where h.id = 5 and i.amount = 7
      when h overlap i|}
  in
  Alcotest.(check string) "temporal join (Q11 shape)"
    "temporal precede join(h, i)"
    (plan_of ~config:(tjoin true) db q11);
  Alcotest.(check string) "Q11 shape falls back to nested scan"
    "nested scan(h, i)"
    (plan_of ~config:(tjoin false) db q11);
  Alcotest.(check string) "overlap join (Q12 shape)"
    "temporal overlap join(h, i)"
    (plan_of ~config:(tjoin true) db q12);
  Alcotest.(check string) "Q12 shape falls back to detach both"
    "detach(h) join detach(i)"
    (plan_of ~config:(tjoin false) db q12)

let test_exact_costs_small () =
  let db = small_temporal () in
  (* 64 tuples, 8/page: hash = 8 buckets; isam = 8 data pages + 1 dir *)
  Alcotest.(check int) "hashed access = 1 page" 1
    (cost_of db "retrieve (h.id) where h.id = 5");
  Alcotest.(check int) "isam access = dir + data" 2
    (cost_of db "retrieve (i.id) where i.id = 5");
  Alcotest.(check int) "hash scan = 8 pages" 8
    (cost_of db "retrieve (h.id) where h.amount = 50");
  Alcotest.(check int) "isam scan skips directory" 8
    (cost_of db "retrieve (i.id) where i.amount = 3")

let test_version_scan_growth () =
  (* Q01's law: cost = 1 + 2n on a 100% loaded temporal hash file. *)
  let db = small_temporal () in
  for n = 1 to 4 do
    Clock.advance (Database.clock db) 1000;
    exec db "replace h (seq = h.seq + 1)";
    Alcotest.(check int)
      (Printf.sprintf "1 + 2*%d" n)
      (1 + (2 * n))
      (cost_of db "retrieve (h.id, h.seq) where h.id = 5")
  done

let test_output_cost () =
  let db = small_temporal () in
  Database.reset_io db;
  let r =
    query db
      {|retrieve (h.id, i.id) where h.id = i.amount
        when h overlap i and i overlap "now"|}
  in
  Alcotest.(check bool) "substitution writes a temporary" true
    (r.io.Executor.output_writes > 0);
  let r2 = query db "retrieve (h.id) where h.id = 5" in
  Alcotest.(check int) "single-variable query writes nothing" 0
    r2.io.Executor.output_writes

let test_join_correctness () =
  (* The substitution join must produce exactly the expected pairs. *)
  let db = small_temporal () in
  let r =
    query db
      {|retrieve (h.id, i.id) where h.id = i.amount
        when h overlap i and i overlap "now"|}
  in
  (* i.amount = (id*7) mod 64; every amount in 0..63 hits exactly one h.id *)
  Alcotest.(check int) "64 join results" 64 (List.length r.tuples)

let test_nested_join_matches_substitution () =
  (* The same logical join evaluated under two plans must agree. *)
  let db = small_temporal () in
  let sub =
    (query db
       {|retrieve (h.id, i.id) where h.id = i.amount
         when h overlap i and i overlap "now"|}).tuples
  in
  (* force nested scan by comparing non-key attributes *)
  let nested =
    (query db
       {|retrieve (h.id, i.id) where h.amount = i.amount * 10
         when h overlap i and i overlap "now"|}).tuples
  in
  (* h.amount = h.id*10, so h.amount = i.amount*10 <=> h.id = i.amount *)
  let norm l =
    List.sort compare
      (List.map (fun tu -> (tu.(0), tu.(1))) l)
  in
  Alcotest.(check bool) "same results under both plans" true
    (norm sub = norm nested)

let test_as_of_filters_per_relation () =
  let db = small_temporal () in
  let t0 = Database.now db in
  Clock.advance (Database.clock db) 1000;
  exec db "replace h (seq = h.seq + 1) where h.id = 5";
  (* as of t0: only the original version of tuple 5 *)
  let r =
    query db
      (Printf.sprintf {|retrieve (h.seq) where h.id = 5 as of "%s"|}
         (Chronon.to_string t0))
  in
  (match r.tuples with
  | [ [| Value.Int 0; _; _ |] ] | [ [| Value.Int 0 |] ] -> ()
  | l ->
      Alcotest.failf "as-of version: %d rows, first seq %s" (List.length l)
        (match l with
        | tu :: _ -> Value.to_string tu.(0)
        | [] -> "none"));
  (* default as-of "now": both the updated current version and the
     terminated record are transaction-current; seq values are 0 and 1 *)
  let r2 = query db "retrieve (h.seq) where h.id = 5" in
  Alcotest.(check int) "default as-of shows full known history" 2
    (List.length r2.tuples)

let test_range_probe () =
  let db = small_temporal () in
  (* 64 tuples, 8/page over ISAM: keys 16..23 live on data page 2 *)
  Alcotest.(check string) "range plan chosen" "fence[tx](range(i))"
    (plan_of db "retrieve (i.id) where i.id >= 16 and i.id <= 23");
  let r = query db "retrieve (i.id) where i.id >= 16 and i.id <= 23" in
  Alcotest.(check int) "8 tuples in range" 8 (List.length r.tuples);
  Alcotest.(check int) "directory + single data page" 2
    r.io.Executor.input_reads;
  (* strict bounds re-filter after the widened probe *)
  let r2 = query db "retrieve (i.id) where i.id > 16 and i.id < 23" in
  Alcotest.(check int) "strict bounds" 6 (List.length r2.tuples);
  (* half-open ranges work too *)
  let r3 = query db "retrieve (i.id) where i.id >= 56" in
  Alcotest.(check int) "open upper bound" 8 (List.length r3.tuples);
  Alcotest.(check bool) "cheaper than a scan"
    true (r3.io.Executor.input_reads < 8);
  (* ranges against the hash key cannot avoid the scan *)
  Alcotest.(check string) "hash key range still scans" "fence[tx](scan(h))"
    (plan_of db "retrieve (h.id) where h.id >= 16 and h.id <= 23");
  (* a range query agrees with the equivalent scan *)
  let scanned = query db "retrieve (i.id) where i.amount >= 0 and i.id >= 16 and i.id <= 23" in
  let norm l = List.sort compare (List.map (fun tu -> tu.(0)) l) in
  Alcotest.(check bool) "same answers as filtered scan" true
    (norm r.tuples = norm scanned.tuples)

let test_retrieve_unique () =
  let db = ok (Database.create ()) in
  exec db "create dup (k = i4, v = i4)";
  exec db "range of d is dup";
  for k = 0 to 19 do
    exec db (Printf.sprintf "append to dup (k = %d, v = %d)" k (k mod 3))
  done;
  let all = query db "retrieve (d.v)" in
  Alcotest.(check int) "20 rows" 20 (List.length all.tuples);
  let uniq = query db "retrieve unique (d.v)" in
  Alcotest.(check int) "3 distinct rows" 3 (List.length uniq.tuples);
  (* on a temporal source, versions differing in their time stamps stay
     distinct: unique deduplicates whole result tuples *)
  let tdb = small_temporal () in
  let u = query tdb {|retrieve unique (s = h.seq) when h overlap "now"|} in
  Alcotest.(check int) "distinct validity keeps versions apart" 64
    (List.length u.tuples)

let test_const_emit () =
  let db = ok (Database.create ()) in
  let r = query db "retrieve (answer = 42)" in
  match r.tuples with
  | [ [| Value.Int 42 |] ] -> ()
  | _ -> Alcotest.fail "constant retrieve"

let suites =
  [
    ( "executor",
      [
        Alcotest.test_case "plan selection" `Quick test_plan_selection;
        Alcotest.test_case "exact costs (small db)" `Quick test_exact_costs_small;
        Alcotest.test_case "version scan growth" `Quick test_version_scan_growth;
        Alcotest.test_case "output cost" `Quick test_output_cost;
        Alcotest.test_case "join correctness" `Quick test_join_correctness;
        Alcotest.test_case "nested = substitution" `Quick
          test_nested_join_matches_substitution;
        Alcotest.test_case "as-of filtering" `Quick test_as_of_filters_per_relation;
        Alcotest.test_case "ISAM range probe" `Quick test_range_probe;
        Alcotest.test_case "retrieve unique" `Quick test_retrieve_unique;
        Alcotest.test_case "constant emit" `Quick test_const_emit;
      ] );
  ]
