module Metric = Tdb_obs.Metric
module Trace = Tdb_obs.Trace
module Json = Tdb_obs.Json
module Workload = Tdb_benchkit.Workload
module Evolve = Tdb_benchkit.Evolve
module Paper_queries = Tdb_benchkit.Paper_queries
module Database = Tdb_core.Database
module Engine = Tdb_core.Engine
module Relation_file = Tdb_storage.Relation_file
module Buffer_pool = Tdb_storage.Buffer_pool
module Executor = Tdb_query.Executor

(* The metric registry's enabled flag is shared across the whole test
   binary: every test restores it.  Tracing needs no such care: each
   statement asks for its own span tree. *)
let with_metrics metrics f =
  let m = Metric.enabled () in
  Metric.set_enabled metrics;
  Fun.protect ~finally:(fun () -> Metric.set_enabled m) f

(* Paper-scale relations sit under the parallelism admission floor;
   floor 0 exercises the fan-out machinery. *)
let fan_out workers = { Executor.default_config with workers; floor = 0 }

(* --- histogram geometry --- *)

let test_bucket_boundaries () =
  Alcotest.(check int) "34 buckets" 34 Metric.buckets;
  Alcotest.(check (float 0.)) "bucket 16 tops at 1.0" 1.0 (Metric.bucket_le 16);
  Alcotest.(check (float 0.)) "bucket 17 tops at 2.0" 2.0 (Metric.bucket_le 17);
  Alcotest.(check (float 0.))
    "bucket 0 tops at 2^-16"
    (2.0 ** -16.)
    (Metric.bucket_le 0);
  Alcotest.(check bool)
    "last bucket is +Inf" true
    (Metric.bucket_le (Metric.buckets - 1) = infinity);
  for i = 1 to Metric.buckets - 1 do
    Alcotest.(check bool)
      "upper bounds strictly increase" true
      (Metric.bucket_le (i - 1) < Metric.bucket_le i)
  done

let test_bucket_index () =
  (* le is inclusive: a value exactly on a boundary lands in that bucket *)
  Alcotest.(check int) "1.0 -> bucket 16" 16 (Metric.bucket_index 1.0);
  Alcotest.(check int) "just above 1.0 -> 17" 17 (Metric.bucket_index 1.000001);
  Alcotest.(check int) "0.75 -> bucket 16" 16 (Metric.bucket_index 0.75);
  Alcotest.(check int) "0.5 -> bucket 15" 15 (Metric.bucket_index 0.5);
  Alcotest.(check int) "tiny -> bucket 0" 0 (Metric.bucket_index 1e-9);
  Alcotest.(check int) "zero -> bucket 0" 0 (Metric.bucket_index 0.);
  Alcotest.(check int)
    "2^16 is the last finite bucket" (Metric.buckets - 2)
    (Metric.bucket_index 65536.);
  Alcotest.(check int)
    "beyond 2^16 -> +Inf bucket" (Metric.buckets - 1)
    (Metric.bucket_index 1e9);
  Alcotest.(check int)
    "nan -> +Inf bucket" (Metric.buckets - 1)
    (Metric.bucket_index nan);
  (* every finite bound classifies into its own bucket *)
  for i = 0 to Metric.buckets - 2 do
    Alcotest.(check int)
      (Printf.sprintf "bound of bucket %d" i)
      i
      (Metric.bucket_index (Metric.bucket_le i))
  done

let test_histogram_dump_cumulative () =
  with_metrics true @@ fun () ->
  let h = Metric.histogram "test_obs_hist_seconds" in
  Metric.observe h 0.5;
  Metric.observe h 0.5;
  Metric.observe h 3.0;
  let recs =
    List.filter
      (fun (r : Metric.record) ->
        String.length r.name >= 13
        && String.sub r.name 0 13 = "test_obs_hist")
      (Metric.dump ())
  in
  let bucket le =
    List.find_map
      (fun (r : Metric.record) ->
        if
          r.name = "test_obs_hist_seconds_bucket"
          && List.assoc_opt "le" r.labels = Some le
        then match r.value with Metric.Int n -> Some n | _ -> None
        else None)
      recs
  in
  Alcotest.(check (option int)) "le=0.5 holds 2" (Some 2) (bucket "0.5");
  Alcotest.(check (option int)) "le=4 holds all 3" (Some 3) (bucket "4");
  Alcotest.(check (option int)) "le=+Inf holds all 3" (Some 3) (bucket "+Inf");
  let count =
    List.find_map
      (fun (r : Metric.record) ->
        if r.name = "test_obs_hist_seconds_count" then
          match r.value with Metric.Int n -> Some n | _ -> None
        else None)
      recs
  in
  Alcotest.(check (option int)) "count" (Some 3) count

(* --- counters and gating --- *)

let test_counter_gating () =
  with_metrics true @@ fun () ->
  let c = Metric.counter "test_obs_gated_total" in
  Metric.reset_counter c;
  Metric.incr c;
  Metric.set_enabled false;
  Metric.incr c;
  Metric.incr c;
  Metric.set_enabled true;
  Alcotest.(check int) "disabled increments dropped" 1 (Metric.count c);
  let r = Metric.raw () in
  Metric.set_enabled false;
  Metric.incr r;
  Metric.set_enabled true;
  Alcotest.(check int) "raw counters never gate" 1 (Metric.count r)

let test_registry_identity () =
  let a = Metric.counter "test_obs_same_total" ~labels:[ ("k", "v") ] in
  let b = Metric.counter "test_obs_same_total" ~labels:[ ("k", "v") ] in
  Metric.reset_counter a;
  Metric.incr a;
  Alcotest.(check int) "same name+labels is the same counter" 1 (Metric.count b)

(* --- JSON --- *)

let roundtrip name v =
  (match Json.parse (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) (name ^ " (compact)") true (Json.equal v v')
  | Error e -> Alcotest.fail (name ^ ": " ^ e));
  match Json.parse (Json.to_string_pretty v) with
  | Ok v' -> Alcotest.(check bool) (name ^ " (pretty)") true (Json.equal v v')
  | Error e -> Alcotest.fail (name ^ ": " ^ e)

let test_json_roundtrip () =
  roundtrip "scalars"
    (Json.List
       [ Json.Null; Json.Bool true; Json.Bool false; Json.int 42;
         Json.Num (-0.125); Json.Num 1e15; Json.Str "plain" ]);
  roundtrip "escapes"
    (Json.Str "quote \" backslash \\ newline \n tab \t control \x01");
  roundtrip "nesting"
    (Json.Obj
       [
         ("empty_list", Json.List []);
         ("empty_obj", Json.Obj []);
         ("deep", Json.List [ Json.Obj [ ("k", Json.List [ Json.int 1 ]) ] ]);
       ]);
  Alcotest.(check string)
    "integral floats print as integers" "[5,-3,0]"
    (Json.to_string (Json.List [ Json.int 5; Json.int (-3); Json.Num 0. ]));
  Alcotest.(check string)
    "non-finite degrades to null" "[null,null]"
    (Json.to_string (Json.List [ Json.Num infinity; Json.Num nan ]))

let test_metrics_json_roundtrip () =
  with_metrics true @@ fun () ->
  Metric.incr (Metric.counter "test_obs_json_total");
  let doc = Metric.to_json () in
  match Json.parse (Json.to_string doc) with
  | Ok v -> Alcotest.(check bool) "metrics dump" true (Json.equal doc v)
  | Error e -> Alcotest.fail e

(* --- spans --- *)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_span_nesting_and_order () =
  with_metrics true @@ fun () ->
  Trace.traced @@ fun () ->
  let root = Trace.start "root" in
  Trace.within "first" (fun _ -> Trace.note_read ());
  Trace.within "second" (fun n ->
      Trace.note_read ();
      Trace.note_read ();
      Trace.within "inner" (fun _ -> Trace.note_write ());
      Alcotest.(check int) "second's own reads" 2 n.Trace.reads);
  let probe = Trace.branch root "probe" in
  for _ = 1 to 3 do
    Trace.enter probe;
    Trace.note_read ();
    Trace.exit probe
  done;
  Trace.finish root;
  Alcotest.(check (list string))
    "children in creation order" [ "first"; "second"; "probe" ]
    (List.map (fun (n : Trace.node) -> n.Trace.name) (Trace.children root));
  Alcotest.(check int) "subtree reads" 6 (Trace.total_reads root);
  Alcotest.(check int) "subtree writes" 1 (Trace.total_writes root);
  Alcotest.(check int) "branch accumulated activations" 3 probe.Trace.reads;
  let rendered = Trace.render root in
  Alcotest.(check bool) "render mentions totals" true
    (contains rendered "total: 6 pages in, 1 pages out")

let test_disabled_spans_are_free () =
  with_metrics true @@ fun () ->
  let n = Trace.start "off" in
  Alcotest.(check bool) "dummy node" false (Trace.is_real n);
  Alcotest.(check bool) "no result" true (Trace.result n = None);
  Trace.note_read ();
  Trace.note_write ();
  Trace.finish n;
  Alcotest.(check int) "dummy accumulates nothing" 0 (Trace.total_reads n)

let test_event_ring () =
  with_metrics true @@ fun () ->
  Trace.clear_events ();
  for i = 1 to Trace.event_capacity + 10 do
    Trace.event ~attrs:[ ("i", string_of_int i) ] "tick"
  done;
  let evs = Trace.events () in
  Alcotest.(check int) "capped at capacity" Trace.event_capacity
    (List.length evs);
  let seqs = List.map (fun (e : Trace.event) -> e.Trace.seq) evs in
  Alcotest.(check bool) "oldest-first, contiguous" true
    (seqs = List.init (List.length seqs) (fun i -> List.hd seqs + i));
  Trace.clear_events ();
  Metric.set_enabled false;
  Trace.event "dropped";
  Alcotest.(check int) "gated when metrics disabled" 0
    (List.length (Trace.events ()))

(* Spans and events are made on any domain: four domains each opening
   10k spans and emitting 10k events at once must never hand out one
   span id or event seq twice, nor lose a count. *)
let test_ids_across_domains () =
  with_metrics true @@ fun () ->
  Trace.clear_events ();
  let domains = 4 and per_domain = 10_000 in
  let ids =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            Trace.traced @@ fun () ->
            let root = Trace.start (Printf.sprintf "domain %d" d) in
            for _ = 1 to per_domain do
              Trace.within "tick" (fun _ -> Trace.event "tick")
            done;
            Trace.finish root;
            List.map (fun (n : Trace.node) -> n.Trace.id)
              (root :: Trace.children root)))
    |> List.concat_map Domain.join
  in
  let distinct l = List.length (List.sort_uniq compare l) in
  Alcotest.(check int) "every span id distinct" (List.length ids) (distinct ids);
  let seqs = List.map (fun (e : Trace.event) -> e.Trace.seq) (Trace.events ()) in
  Alcotest.(check int) "ring full" Trace.event_capacity (List.length seqs);
  Alcotest.(check int) "no duplicate seq" (List.length seqs) (distinct seqs);
  (* the next event's seq counts every event before it *)
  Trace.event "after";
  let last = List.nth (Trace.events ()) (Trace.event_capacity - 1) in
  Alcotest.(check int) "no seq lost" (domains * per_domain) last.Trace.seq;
  Trace.clear_events ()

(* --- engine integration --- *)

let q05 kind =
  match Paper_queries.text Paper_queries.Q05 kind with
  | Some src -> src
  | None -> Alcotest.fail "Q05 undefined for kind"

let test_disabled_metrics_same_page_counts () =
  (* The acceptance bar: the observability layer must not perturb the
     paper's numbers.  Identical cold-cache page counts with the registry
     enabled and disabled. *)
  let measure ~metrics ~trace =
    with_metrics metrics @@ fun () ->
    let w = Workload.build ~kind:Workload.Temporal ~loading:100 ~seed:99 () in
    List.map
      (fun qid ->
        match Paper_queries.text qid Workload.Temporal with
        | Some src when trace -> (
            (* explain analyze: the same execution, span tree requested *)
            Database.reset_io w.Workload.db;
            match Engine.analyze w.Workload.db src with
            | Ok { Engine.a_outcome = Engine.Rows { io; trace = Some _; _ }; _ }
              ->
                io.Executor.input_reads
            | _ -> Alcotest.failf "expected traced rows: %s" src)
        | Some src -> Evolve.measure_query w src
        | None -> -1)
      Paper_queries.[ Q01; Q03; Q05; Q07; Q09; Q11 ]
  in
  let on = measure ~metrics:true ~trace:false in
  let off = measure ~metrics:false ~trace:false in
  let traced = measure ~metrics:true ~trace:true in
  Alcotest.(check (list int)) "metrics off: identical page counts" on off;
  Alcotest.(check (list int)) "tracing on: identical page counts" on traced

let test_q05_span_sum_equals_io_total () =
  (* profile on Q05: the summed per-operator reads of the span tree must
     equal the executor's Io_stats total. *)
  with_metrics true @@ fun () ->
  let w = Workload.build ~kind:Workload.Temporal ~loading:100 ~seed:7 () in
  Database.reset_io w.Workload.db;
  match Engine.analyze w.Workload.db (q05 Workload.Temporal) with
  | Ok { Engine.a_outcome = Engine.Rows { io; trace = Some node; _ }; _ } ->
      Alcotest.(check bool) "some pages were read" true
        (io.Tdb_query.Executor.input_reads > 0);
      Alcotest.(check int) "span tree sums to the Io_stats total"
        io.Tdb_query.Executor.input_reads (Trace.total_reads node);
      Alcotest.(check int) "writes attributed too"
        io.Tdb_query.Executor.output_writes (Trace.total_writes node)
  | Ok { Engine.a_outcome = Engine.Rows { trace = None; _ }; _ } ->
      Alcotest.fail "tracing requested but no trace attached"
  | Ok _ -> Alcotest.fail "expected a Rows outcome"
  | Error e -> Alcotest.fail e

let test_nested_query_span_sum () =
  (* Same invariant on a join (nested-loop plan, branch/enter/exit path). *)
  with_metrics true @@ fun () ->
  let w = Workload.build ~kind:Workload.Temporal ~loading:100 ~seed:7 () in
  match Paper_queries.text Paper_queries.Q11 Workload.Temporal with
  | None -> Alcotest.fail "Q11 undefined"
  | Some src -> (
      Database.reset_io w.Workload.db;
      match Engine.analyze w.Workload.db src with
      | Ok { Engine.a_outcome = Engine.Rows { io; trace = Some node; _ }; _ }
        ->
          Alcotest.(check int) "join span tree sums to the Io_stats total"
            io.Tdb_query.Executor.input_reads (Trace.total_reads node);
          Alcotest.(check bool) "tree has operator children" true
            (Trace.children node <> [])
      | Ok _ -> Alcotest.fail "expected a traced Rows outcome"
      | Error e -> Alcotest.fail e)

(* --- parallel scans: partition attribution --- *)

let chill (w : Workload.t) =
  let db = w.Workload.db in
  List.iter
    (fun name ->
      match Database.find_relation db name with
      | Some rel -> Buffer_pool.invalidate (Relation_file.pool rel)
      | None -> ())
    (Database.relation_names db)

let is_partition (n : Trace.node) =
  String.length n.Trace.name >= 9 && String.sub n.Trace.name 0 9 = "partition"

let rec collect_partitions (n : Trace.node) acc =
  let acc = if is_partition n then n :: acc else acc in
  List.fold_left (fun acc c -> collect_partitions c acc) acc (Trace.children n)

let test_parallel_partition_span_sum () =
  (* The acceptance bar for explain-analyze under parallelism: at update
     count 15 with 4 workers, the executed plan must carry one child span
     per partition with that worker's domain and busy time, and the page
     reads must still sum to the Io_stats total exactly — the
     worker-private counters are folded without double counting. *)
  with_metrics true @@ fun () ->
  let w = Workload.build ~kind:Workload.Temporal ~loading:100 ~seed:31 () in
  for round = 1 to 15 do
    Evolve.uniform_round w ~round
  done;
  List.iter
    (fun (qid, scan_only) ->
      let name = Paper_queries.name qid in
      match Paper_queries.text qid Workload.Temporal with
      | None -> Alcotest.failf "%s undefined" name
      | Some src -> (
          chill w;
          match Engine.analyze ~config:(fan_out 4) w.Workload.db src with
          | Error e -> Alcotest.failf "%s: %s" name e
          | Ok a -> (
              Alcotest.(check int)
                (name ^ ": ran with 4 workers") 4 a.Engine.a_workers;
              match a.Engine.a_outcome with
              | Engine.Rows { io; trace = Some node; _ } ->
                  Alcotest.(check int)
                    (name ^ ": span tree sums to the Io_stats total")
                    io.Tdb_query.Executor.input_reads (Trace.total_reads node);
                  let parts = collect_partitions node [] in
                  Alcotest.(check bool)
                    (name ^ ": scan split into partitions") true
                    (List.length parts >= 2);
                  List.iter
                    (fun (p : Trace.node) ->
                      Alcotest.(check bool)
                        (name ^ ": partition records its domain") true
                        (List.mem_assoc "domain" p.Trace.attrs);
                      Alcotest.(check bool)
                        (name ^ ": partition busy time recorded") true
                        (p.Trace.elapsed >= 0.0))
                    parts;
                  let part_reads =
                    List.fold_left (fun s (p : Trace.node) -> s + p.Trace.reads) 0 parts
                  in
                  if scan_only then
                    (* single-relation scan: every page read happens inside
                       a partition's private pool *)
                    Alcotest.(check int)
                      (name ^ ": partition reads sum to the Io_stats total")
                      io.Tdb_query.Executor.input_reads part_reads
                  else
                    Alcotest.(check bool)
                      (name ^ ": partitions read pages") true (part_reads > 0)
              | _ -> Alcotest.failf "%s: expected a traced Rows outcome" name)))
    [ (Paper_queries.Q03, true); (Paper_queries.Q11, false) ]

let rec find_span pred (n : Trace.node) =
  if pred n then Some n
  else List.find_map (find_span pred) (Trace.children n)

(* The calling domain drains partitions too (it runs one of the worker
   loops).  Its reads must land on its partition's span only: a full,
   unpruned scan leaves the scan span itself with no reads, and the tree
   sums to the Io_stats total, at 2 and at 4 workers. *)
let test_main_domain_partitions_charged_once () =
  with_metrics true @@ fun () ->
  let w = Workload.build ~kind:Workload.Temporal ~loading:100 ~seed:37 () in
  for round = 1 to 3 do
    Evolve.uniform_round w ~round
  done;
  let src = "retrieve (h.id, h.seq) where h.amount = 69400" in
  List.iter
    (fun workers ->
      chill w;
      let label = Printf.sprintf "%d workers" workers in
      let config = { (fan_out workers) with pruning = false } in
      match Engine.analyze ~config w.Workload.db src with
      | Error e -> Alcotest.failf "%s: %s" label e
      | Ok a -> (
          match a.Engine.a_outcome with
          | Engine.Rows { io; trace = Some node; _ } ->
              let is_scan (n : Trace.node) =
                List.exists is_partition (Trace.children n)
              in
              let scan =
                match find_span is_scan node with
                | Some n -> n
                | None -> Alcotest.failf "%s: no partitioned scan span" label
              in
              Alcotest.(check int) (label ^ ": scan span's own reads") 0
                scan.Trace.reads;
              Alcotest.(check int)
                (label ^ ": span tree sums to the Io_stats total")
                io.Tdb_query.Executor.input_reads (Trace.total_reads node)
          | _ -> Alcotest.failf "%s: expected a traced Rows outcome" label))
    [ 2; 4 ]

(* Fence skips are charged once under fan-out: shard prunes at partition
   build time land on the scan (or join) span, each partition's own
   skips on its partition span.  So the span tree's skip total at 2 and
   4 workers equals the sequential run's, and the prune counter's delta,
   for the paper queries that prune (Q03/Q04 rollback scans, the Q11
   join). *)
let test_parallel_skips_counted_once () =
  with_metrics true @@ fun () ->
  let w = Workload.build ~kind:Workload.Temporal ~loading:100 ~seed:31 () in
  for round = 1 to 15 do
    Evolve.uniform_round w ~round
  done;
  let skips src workers =
    chill w;
    let before = Tdb_storage.Time_fence.pages_skipped () in
    match Engine.analyze ~config:(fan_out workers) w.Workload.db src with
    | Error e -> Alcotest.fail e
    | Ok a -> (
        match Engine.outcome_trace a.Engine.a_outcome with
        | Some node ->
            (Trace.total_skips node,
             Tdb_storage.Time_fence.pages_skipped () - before)
        | None -> Alcotest.fail "expected a traced outcome")
  in
  List.iter
    (fun qid ->
      let name = Paper_queries.name qid in
      let src = Option.get (Paper_queries.text qid Workload.Temporal) in
      let seq, seq_counter = skips src 1 in
      Alcotest.(check bool) (name ^ ": the query prunes") true (seq > 0);
      Alcotest.(check int) (name ^ ": 1 worker, span = counter") seq_counter seq;
      List.iter
        (fun workers ->
          let par, counter = skips src workers in
          let label = Printf.sprintf "%s: %d workers" name workers in
          Alcotest.(check int) (label ^ ", span skips = 1 worker's") seq par;
          Alcotest.(check int) (label ^ ", span skips = counter") counter par)
        [ 2; 4 ])
    Paper_queries.[ Q03; Q04; Q11 ]

let test_temporal_join_span_sum () =
  (* The operator I/O attribution pin for the temporal join: on a
     Q11-class query at update count 15 with 4 workers, the trace must
     carry a tjoin operator span, the subtree page reads must sum to the
     Io_stats total exactly (the envelope-narrowed inner scan and its
     partitions charge under the join span), and the invariant must hold
     identically with the operator disabled. *)
  with_metrics true @@ fun () ->
  let w = Workload.build ~kind:Workload.Temporal ~loading:100 ~seed:43 () in
  for round = 1 to 15 do
    Evolve.uniform_round w ~round
  done;
  let src =
    match Paper_queries.text Paper_queries.Q11 Workload.Temporal with
    | Some src -> src
    | None -> Alcotest.fail "Q11 undefined"
  in
  let analyze temporal_join =
    chill w;
    match
      Engine.analyze ~config:{ (fan_out 4) with temporal_join } w.Workload.db
        src
    with
    | Error e -> Alcotest.fail e
    | Ok a -> (
        match a.Engine.a_outcome with
        | Engine.Rows { io; tuples; trace = Some node; _ } ->
            (io, tuples, node)
        | _ -> Alcotest.fail "expected a traced Rows outcome")
  in
  let statements = Metric.counter "tdb_tjoin_statements_total" in
  let before = Metric.count statements in
  let io_tj, tuples_tj, node_tj = analyze true in
  Alcotest.(check bool) "temporal join metric ticked" true
    (Metric.count statements > before);
  let is_tjoin (n : Trace.node) =
    String.length n.Trace.name >= 6 && String.sub n.Trace.name 0 6 = "tjoin["
  in
  let jspan =
    match find_span is_tjoin node_tj with
    | Some n -> n
    | None -> Alcotest.fail "no tjoin operator span in the trace"
  in
  Alcotest.(check int) "tjoin span tree sums to the Io_stats total"
    io_tj.Tdb_query.Executor.input_reads
    (Trace.total_reads node_tj);
  (* the inner side's pages (and its parallel partitions) charge under
     the join span, not to some sibling *)
  Alcotest.(check bool) "inner scan charges under the join span" true
    (Trace.total_reads jspan > 0);
  Alcotest.(check bool) "inner partitions hang off the join span" true
    (collect_partitions jspan [] <> []);
  (* the fallback path keeps both the rows and the invariant *)
  let io_nl, tuples_nl, node_nl = analyze false in
  (match find_span is_tjoin node_nl with
  | Some _ -> Alcotest.fail "toggle off must not produce a tjoin span"
  | None -> ());
  Alcotest.(check int) "fallback span tree sums to the Io_stats total"
    io_nl.Tdb_query.Executor.input_reads
    (Trace.total_reads node_nl);
  Alcotest.(check bool) "rows identical across strategies" true
    (tuples_tj = tuples_nl)

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "histogram bucket boundaries" `Quick
          test_bucket_boundaries;
        Alcotest.test_case "histogram bucket index" `Quick test_bucket_index;
        Alcotest.test_case "histogram cumulative dump" `Quick
          test_histogram_dump_cumulative;
        Alcotest.test_case "counter gating" `Quick test_counter_gating;
        Alcotest.test_case "registry identity" `Quick test_registry_identity;
        Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "metrics json round-trip" `Quick
          test_metrics_json_roundtrip;
        Alcotest.test_case "span nesting and order" `Quick
          test_span_nesting_and_order;
        Alcotest.test_case "disabled spans are free" `Quick
          test_disabled_spans_are_free;
        Alcotest.test_case "event ring buffer" `Quick test_event_ring;
        Alcotest.test_case "span ids and event seqs across domains" `Quick
          test_ids_across_domains;
        Alcotest.test_case "disabled metrics: same page counts" `Quick
          test_disabled_metrics_same_page_counts;
        Alcotest.test_case "q05 span sum = io total" `Quick
          test_q05_span_sum_equals_io_total;
        Alcotest.test_case "nested query span sum" `Quick
          test_nested_query_span_sum;
        Alcotest.test_case "parallel partition span sum (uc 15, 4 workers)"
          `Slow test_parallel_partition_span_sum;
        Alcotest.test_case "temporal join span sum (uc 15, 4 workers)" `Slow
          test_temporal_join_span_sum;
        Alcotest.test_case "main-domain partitions charged once" `Quick
          test_main_domain_partitions_charged_once;
        Alcotest.test_case "parallel skips counted once (uc 15)" `Slow
          test_parallel_skips_counted_once;
      ] );
  ]
