(* Reproduction of every table and figure in the evaluation of:

     Ahn & Snodgrass, "Performance Evaluation of a Temporal Database
     Management System", SIGMOD 1986 (UNC TR 85-033).

   Sections printed:
     Figure 5  - space requirements (pages)
     Figure 6  - input costs for the temporal database, 100% loading
     Figure 7  - input pages for the four database types
     Figure 8  - graphs of input pages vs update count
     Figure 9  - fixed costs, variable costs, growth rates
     model     - validation of cost(n) = fixed + variable*(1 + rate*n)
     s5.4      - non-uniform update distribution
     Figure 10 - two-level store and secondary indexing improvements
     pruning   - time-fence skip-scans: the cost grid fences on vs off
     durability - write-ahead journal wall-clock overhead, on vs off
     ablations - buffer pool size, overflow placement, loading crossover
     timing    - bechamel wall-clock micro-benchmarks (one per figure)

   The paper's metric is page I/O with one buffer per user relation; wall
   clock appears only in the timing section.  The paper-faithful sections
   run with fence pruning disabled - the paper's cost model assumes every
   page of a chain is read - and only the pruning section toggles it.

   The pruning section doubles as a regression gate: the process exits
   non-zero if the rollback queries skip no pages, if fences change any
   query result, or if the fenced growth rate fails to beat the unfenced
   one.

   Flags:
     --smoke      evolve to UC 3 instead of 15 and skip the slow sections
                  (s5.4, ablations, bechamel timing) - a CI-sized run
     --scale N    generator scale axis: multiply the paper's 1024-row
                  relations (and so the work of every update round) by N
                  in the paper-faithful sections; N must be one of
                  1|10|100|1000 (default 1).  The scale-sweep section
                  below runs its own fixed ladder of scales regardless,
                  so the canonical scale-1 documents still probe large
                  scales.  The meta.scale key records N so --compare can
                  skip grid comparisons across different scales
     --json PATH  write a machine-readable result document to PATH:
                  per-section wall time and peak heap words, the full
                  cost grid, the pruning experiment and an engine
                  metrics snapshot
     --compare OLD NEW
                  run no benchmark: diff two --json result documents
                  (grid cell equality, section wall-time drift, the
                  pruning/parallel/durability gates) and exit non-zero
                  on a hard regression; see Tdb_benchkit.Compare
     --compare-tolerance F
                  relative noise tolerance for drift warnings in
                  --compare (default 0.5 = 50%) *)

module Workload = Tdb_benchkit.Workload
module Evolve = Tdb_benchkit.Evolve
module Paper_queries = Tdb_benchkit.Paper_queries
module Cost_model = Tdb_benchkit.Cost_model
module Report = Tdb_benchkit.Report
module Pruning = Tdb_benchkit.Pruning
module Compare = Tdb_benchkit.Compare
module Obs_json = Tdb_benchkit.Obs_json
module Time_fence = Tdb_storage.Time_fence
module Json = Tdb_obs.Json
module Database = Tdb_core.Database
module Engine = Tdb_core.Engine
module Executor = Tdb_query.Executor
module Relation_file = Tdb_storage.Relation_file
module Buffer_pool = Tdb_storage.Buffer_pool
module Io_stats = Tdb_storage.Io_stats
module Two_level_store = Tdb_twostore.Two_level_store
module Secondary_index = Tdb_twostore.Secondary_index
module Db_instance = Tdb_session.Db_instance
module Session = Tdb_session.Session
module Schema = Tdb_relation.Schema
module Value = Tdb_relation.Value
module Attr_type = Tdb_relation.Attr_type
module Chronon = Tdb_time.Chronon
module Clock = Tdb_time.Clock

let seed = 850331 (* the TR number, for luck *)

(* The paper's point in the engine's configuration space.  Its cost model
   charges every page of a chain, so the grid and figure sections must
   not skip-scan, or Figure 9's growth-rate law dissolves.  One worker
   keeps every figure measuring what previous revisions measured,
   whatever the host's core count.  The temporal-algebra operators
   change which pages a join touches, so every paper-faithful section
   keeps the nested-loop cost model.  The pruning, parallel, scale and
   tjoin sections each vary one field of this record. *)
let paper =
  {
    Executor.default_config with
    workers = 1;
    temporal_join = false;
    pruning = false;
  }

(* Flags are read before the constants below: top-level bindings evaluate
   in order, so a smoke run shrinks the whole grid. *)
let smoke = Array.exists (( = ) "--smoke") (Sys.argv : string array)

let flag_value name =
  let path = ref None in
  Array.iteri
    (fun i a ->
      if a = name && i + 1 < Array.length Sys.argv then
        path := Some Sys.argv.(i + 1))
    Sys.argv;
  !path

let json_path = flag_value "--json"

(* --compare OLD NEW: a pure document diff, no benchmark run. *)
let compare_paths =
  let r = ref None in
  Array.iteri
    (fun i a ->
      if a = "--compare" && i + 2 < Array.length Sys.argv then
        r := Some (Sys.argv.(i + 1), Sys.argv.(i + 2)))
    Sys.argv;
  !r

let compare_tolerance =
  Option.bind (flag_value "--compare-tolerance") float_of_string_opt

(* --scale N: every paper-faithful workload holds N * 1024 rows (ids stay
   dense, so the hot probe tuples keep their identity), and each uniform
   update round replaces N * 1024 current versions. *)
let scale =
  match flag_value "--scale" with
  | None -> 1
  | Some s -> (
      match int_of_string_opt s with
      | Some n when List.mem n [ 1; 10; 100; 1000 ] -> n
      | _ ->
          Printf.eprintf "fatal usage error: --scale must be 1, 10, 100 or 1000 (got %s)\n" s;
          exit 2)

let n_keys = Workload.n_tuples * scale
let max_uc = if smoke then 3 else 15
let report_uc = if smoke then 2 else 14

(* ------------------------------------------------------------------ *)
(* Data collection: the full grid of 8 databases evolved to UC 15.    *)
(* ------------------------------------------------------------------ *)

type cell = {
  h_pages : int;
  i_pages : int;
  costs : (Paper_queries.id * int) list;
}

type run = {
  kind : Workload.kind;
  loading : int;
  cells : cell array; (* index = update count, 0 .. max_uc *)
}

let measure_cell (w : Workload.t) =
  let costs =
    List.filter_map
      (fun qid ->
        Option.map
          (fun src -> (qid, Evolve.measure_query ~config:paper w src))
          (Paper_queries.text qid w.Workload.kind))
      Paper_queries.all
  in
  let h_pages, i_pages = Evolve.sizes w in
  { h_pages; i_pages; costs }

let collect_run ~kind ~loading =
  let w = Workload.build ~scale ~kind ~loading ~seed () in
  let cells = Array.make (max_uc + 1) { h_pages = 0; i_pages = 0; costs = [] } in
  cells.(0) <- measure_cell w;
  let rounds = if kind = Workload.Static then 0 else max_uc in
  for uc = 1 to rounds do
    Evolve.uniform_round w ~round:uc;
    cells.(uc) <- measure_cell w
  done;
  ({ kind; loading; cells }, w)

let cost run ~uc qid =
  match List.assoc_opt qid run.cells.(uc).costs with Some c -> c | None -> -1

let cost_str run ~uc qid =
  match List.assoc_opt qid run.cells.(uc).costs with
  | Some c -> string_of_int c
  | None -> "-"

(* ------------------------------------------------------------------ *)
(* Figure 5                                                            *)
(* ------------------------------------------------------------------ *)

let figure5 runs =
  let size r which uc =
    match which with
    | `H -> r.cells.(uc).h_pages
    | `I -> r.cells.(uc).i_pages
  in
  let row label value_of =
    label :: List.concat_map (fun r -> [ value_of r `H; value_of r `I ]) runs
  in
  let header =
    ""
    :: List.concat_map
         (fun r ->
           let tag =
             Printf.sprintf "%s%d" (String.sub (Workload.kind_to_string r.kind) 0 4) r.loading
           in
           [ tag ^ " H"; tag ^ " I" ])
         runs
  in
  let rows =
    [
      row "size, UC=0" (fun r w -> string_of_int (size r w 0));
      row
        (Printf.sprintf "size, UC=%d" report_uc)
        (fun r w ->
          if r.kind = Workload.Static then "-"
          else string_of_int (size r w report_uc));
      row "growth/update" (fun r w ->
          if r.kind = Workload.Static then "-"
          else
            Report.centi
              (float_of_int (size r w report_uc - size r w 0)
              /. float_of_int report_uc));
      row "growth rate" (fun r w ->
          if r.kind = Workload.Static then "-"
          else
            Report.centi
              (float_of_int (size r w report_uc - size r w 0)
              /. float_of_int report_uc
              /. float_of_int (size r w 0)));
    ]
  in
  print_endline "== Figure 5: Space requirements (in pages) ==";
  print_endline (Report.table ~header rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Figure 6                                                            *)
(* ------------------------------------------------------------------ *)

let figure6 run =
  print_endline
    "== Figure 6: Input costs for the temporal database with 100% loading ==";
  let header = "Query" :: List.init (max_uc + 1) string_of_int in
  let rows =
    List.filter_map
      (fun qid ->
        if List.mem_assoc qid run.cells.(0).costs then
          Some
            (Paper_queries.name qid
            :: List.init (max_uc + 1) (fun uc -> cost_str run ~uc qid))
        else None)
      Paper_queries.all
  in
  print_endline (Report.table ~header rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Figure 7                                                            *)
(* ------------------------------------------------------------------ *)

let figure7 runs =
  print_endline
    "== Figure 7: Number of input pages for four types of databases ==";
  let header =
    "Query"
    :: List.concat_map
         (fun r ->
           let tag =
             Printf.sprintf "%s%d" (String.sub (Workload.kind_to_string r.kind) 0 4) r.loading
           in
           [ tag ^ "/0"; Printf.sprintf "%s/%d" tag report_uc ])
         runs
  in
  let rows =
    List.map
      (fun qid ->
        Paper_queries.name qid
        :: List.concat_map
             (fun r ->
               [
                 cost_str r ~uc:0 qid;
                 (if r.kind = Workload.Static then cost_str r ~uc:0 qid
                  else cost_str r ~uc:report_uc qid);
               ])
             runs)
      Paper_queries.all
  in
  print_endline (Report.table ~header rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Figure 8                                                            *)
(* ------------------------------------------------------------------ *)

let figure8 ~temporal100 ~rollback50 =
  print_endline "== Figure 8: Graphs for input pages ==";
  let series run qids =
    List.filter_map
      (fun qid ->
        if List.mem_assoc qid run.cells.(0).costs then
          Some
            ( Paper_queries.name qid,
              List.init (max_uc + 1) (fun uc -> (uc, cost run ~uc qid)) )
        else None)
      qids
  in
  print_endline
    (Report.plot
       ~title:"(a) Temporal database with 100% loading (input pages)"
       ~series:(series temporal100 Paper_queries.[ Q10; Q09; Q11; Q03; Q01 ])
       ());
  print_newline ();
  print_endline
    (Report.plot ~title:"(b) Rollback database with 50% loading (input pages)"
       ~series:(series rollback50 Paper_queries.[ Q10; Q09; Q03; Q01 ])
       ());
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Figure 9 and model validation                                       *)
(* ------------------------------------------------------------------ *)

let decompositions run =
  List.filter_map
    (fun qid ->
      match
        ( List.assoc_opt qid run.cells.(0).costs,
          List.assoc_opt qid run.cells.(report_uc).costs )
      with
      | Some c0, Some cn ->
          Some
            ( qid,
              Cost_model.decompose ~kind:run.kind ~loading:run.loading
                ~cost0:c0 ~cost_n:cn ~n:report_uc )
      | _ -> None)
    Paper_queries.all

let figure9 runs =
  print_endline "== Figure 9: Fixed costs, variable costs and growth rates ==";
  let interesting =
    List.filter
      (fun r -> r.kind = Workload.Rollback || r.kind = Workload.Temporal)
      runs
  in
  let header =
    "Query"
    :: List.concat_map
         (fun r ->
           let tag =
             Printf.sprintf "%s%d" (String.sub (Workload.kind_to_string r.kind) 0 4) r.loading
           in
           [ tag ^ " fix"; tag ^ " var"; tag ^ " rate" ])
         interesting
  in
  let rows =
    List.map
      (fun qid ->
        Paper_queries.name qid
        :: List.concat_map
             (fun r ->
               match List.assoc_opt qid (decompositions r) with
               | Some d when d.Cost_model.variable > 0. ->
                   [
                     Report.centi d.Cost_model.fixed;
                     Report.centi d.Cost_model.variable;
                     Report.centi
                       (float_of_int (cost r ~uc:report_uc qid - cost r ~uc:0 qid)
                       /. float_of_int report_uc /. d.Cost_model.variable);
                   ]
               | _ -> [ "-"; "-"; "-" ])
             interesting)
      Paper_queries.all
  in
  print_endline (Report.table ~header rows);
  print_endline
    "(rate = measured slope / variable cost; the paper's law: it equals the\n\
    \ loading factor on rollback databases and twice the loading factor on\n\
    \ temporal databases, independent of query type and access method)";
  print_newline ()

let model_validation runs =
  print_endline
    "== Model validation: cost(n) = fixed + variable * (1 + rate * n) ==";
  let rows =
    List.filter_map
      (fun r ->
        if r.kind = Workload.Static then None
        else begin
          let ds = decompositions r in
          let worst = ref 0. and sum = ref 0. and count = ref 0 in
          List.iter
            (fun (qid, d) ->
              for uc = 0 to max_uc do
                match List.assoc_opt qid r.cells.(uc).costs with
                | Some measured when measured > 0 ->
                    let predicted = Cost_model.predict d uc in
                    let e = Cost_model.relative_error ~predicted ~measured in
                    worst := max !worst e;
                    sum := !sum +. e;
                    incr count
                | _ -> ()
              done)
            ds;
          Some
            [
              Printf.sprintf "%s %d%%" (Workload.kind_to_string r.kind) r.loading;
              string_of_int !count;
              Printf.sprintf "%.2f%%" (100. *. !sum /. float_of_int !count);
              Printf.sprintf "%.2f%%" (100. *. !worst);
            ]
        end)
      runs
  in
  print_endline
    (Report.table
       ~header:[ "database"; "points"; "mean |error|"; "worst |error|" ]
       rows);
  print_endline
    "(fit from UC 0 and 14 with the type-determined growth rate, then\n\
    \ checked against every measured update count; the 50%-loading worst\n\
    \ cases are Figure 8(b)'s jagged staircase - odd rounds fill the slack\n\
    \ left by even rounds, so the linear model is half a step off on the\n\
    \ smallest queries)";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Section 5.4: non-uniform distribution                               *)
(* ------------------------------------------------------------------ *)

let section54 () =
  print_endline "== Section 5.4: Non-uniform distribution of updates ==";
  print_endline
    "(one tuple updated 1024 times per round vs uniform evolution;\n\
    \ hashed access measured for every key and averaged)";
  let loading = 100 in
  let skewed_w = Workload.build ~scale ~kind:Workload.Temporal ~loading ~seed () in
  let uniform_w = Workload.build ~scale ~kind:Workload.Temporal ~loading ~seed () in
  let avg_hashed_access wk =
    let total = ref 0 in
    for key = 0 to n_keys - 1 do
      total := !total + Evolve.hashed_access_cost wk ~key
    done;
    float_of_int !total /. float_of_int n_keys
  in
  let rows = ref [] in
  for uc = 0 to 4 do
    if uc > 0 then begin
      Evolve.non_uniform_round skewed_w ~round:uc ~key:500;
      Evolve.uniform_round uniform_w ~round:uc
    end;
    let skewed = avg_hashed_access skewed_w in
    let flat = avg_hashed_access uniform_w in
    rows :=
      [
        string_of_int uc;
        Report.centi skewed;
        Report.centi flat;
        Report.centi (skewed -. flat);
      ]
      :: !rows
  done;
  print_endline
    (Report.table
       ~header:[ "avg UC"; "skewed mean"; "uniform mean"; "difference" ]
       (List.rev !rows));
  print_endline
    "(the paper's observation: the growth rate is independent of the\n\
    \ distribution of updated tuples - the two columns agree)";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Figure 10: two-level store and secondary indexing                   *)
(* ------------------------------------------------------------------ *)

let evolve_store store ~rounds =
  for round = 1 to rounds do
    let now = Chronon.add_seconds Workload.evolution_base (round * 86400) in
    for key = 0 to n_keys - 1 do
      ignore
        (Two_level_store.replace store ~now ~key:(Value.Int key) (fun tu ->
             (match tu.(2) with
             | Value.Int s -> tu.(2) <- Value.Int (s + 1)
             | _ -> ());
             tu))
    done
  done

type fig10_env = {
  store_h_simple : Two_level_store.t;
  store_h_clustered : Two_level_store.t;
  store_i_simple : Two_level_store.t;
  store_i_clustered : Two_level_store.t;
  query_db : Database.t;
  conv_w : Workload.t; (* the conventional temporal db, evolved to UC 14 *)
  idx_1l_heap : Secondary_index.t; (* over every version of conventional h *)
  idx_1l_hash : Secondary_index.t;
  idx_2l_cur_heap : Secondary_index.t; (* over current versions only *)
  idx_2l_cur_hash : Secondary_index.t;
  idx_2l_hist_heap : Secondary_index.t;
}

let build_fig10 (conv_w : Workload.t) =
  let schema = Workload.schema_for Workload.Temporal in
  let tuples which =
    Workload.tuples_for ~scale ~kind:Workload.Temporal ~seed ~which schema
  in
  let mk which ~name ~organization ~clustered =
    let store =
      Two_level_store.create ~name ~schema ~organization ~clustered
        (tuples which)
    in
    evolve_store store ~rounds:report_uc;
    store
  in
  let hash_org = Relation_file.Hash { key_attr = 0; fillfactor = 100 } in
  let isam_org = Relation_file.Isam { key_attr = 0; fillfactor = 100 } in
  let store_h_simple =
    mk `H ~name:"h_simple" ~organization:hash_org ~clustered:false
  in
  let store_h_clustered =
    mk `H ~name:"twolevel_h" ~organization:hash_org ~clustered:true
  in
  let store_i_simple =
    mk `I ~name:"i_simple" ~organization:isam_org ~clustered:false
  in
  let store_i_clustered =
    mk `I ~name:"twolevel_i" ~organization:isam_org ~clustered:true
  in
  (* The query clock must stand after the last evolution stamp, or the
     default as-of/overlap "now" sees no current versions at all. *)
  let after_evolution =
    Chronon.add_seconds Workload.evolution_base ((report_uc + 1) * 86400)
  in
  let query_db =
    match Database.create ~start:after_evolution () with
    | Ok db -> db
    | Error e -> Tdb_error.internal "bench setup: %s" e
  in
  let adopt rel var =
    (match Database.adopt_relation query_db rel with
    | Ok () -> ()
    | Error e -> Tdb_error.internal "bench setup: %s" e);
    match Database.set_range query_db ~var ~rel:(Relation_file.name rel) with
    | Ok () -> ()
    | Error e -> Tdb_error.internal "bench setup: %s" e
  in
  adopt (Two_level_store.primary store_h_clustered) "h";
  adopt (Two_level_store.primary store_i_clustered) "i";
  (* Secondary indexes on amount.  1-level: every version of the
     conventional relation; 2-level: split between current and history
     versions of the two-level store. *)
  let conv_h = Workload.h_rel conv_w in
  let amount_of tu = tu.(1) in
  let one_level_entries =
    let acc = ref [] in
    Relation_file.scan conv_h (fun tid tu -> acc := (amount_of tu, tid) :: !acc);
    List.rev !acc
  in
  let current_entries =
    List.map
      (fun (tid, tu) -> (amount_of tu, tid))
      (Two_level_store.current_tids store_h_clustered)
  in
  let history_entries =
    List.map
      (fun (tid, tu) -> (amount_of tu, tid))
      (Two_level_store.history_tids store_h_clustered)
  in
  {
    store_h_simple;
    store_h_clustered;
    store_i_simple;
    store_i_clustered;
    query_db;
    conv_w;
    idx_1l_heap =
      Secondary_index.build ~structure:Secondary_index.Heap_index
        ~key_type:Attr_type.I4 one_level_entries;
    idx_1l_hash =
      Secondary_index.build ~structure:Secondary_index.Hash_index
        ~key_type:Attr_type.I4 one_level_entries;
    idx_2l_cur_heap =
      Secondary_index.build ~structure:Secondary_index.Heap_index
        ~key_type:Attr_type.I4 current_entries;
    idx_2l_cur_hash =
      Secondary_index.build ~structure:Secondary_index.Hash_index
        ~key_type:Attr_type.I4 current_entries;
    idx_2l_hist_heap =
      Secondary_index.build ~structure:Secondary_index.Heap_index
        ~key_type:Attr_type.I4 history_entries;
  }

(* Version scan over a two-level store: primary access plus the history
   chain (Q01/Q02's shape). *)
let version_scan_cost store key =
  Two_level_store.reset_io store;
  let n = ref 0 in
  Two_level_store.version_scan store (Value.Int key) (fun _ -> incr n);
  (Two_level_store.io store).Io_stats.reads

let current_lookup_cost store key =
  Two_level_store.reset_io store;
  Two_level_store.current_lookup store (Value.Int key) (fun _ -> ());
  (Two_level_store.io store).Io_stats.reads

let current_scan_cost store =
  Two_level_store.reset_io store;
  Two_level_store.current_scan store (fun _ -> ());
  (Two_level_store.io store).Io_stats.reads

let scan_all_cost store =
  Two_level_store.reset_io store;
  Two_level_store.scan_all store (fun _ -> ());
  (Two_level_store.io store).Io_stats.reads

(* Q07 through a 1-level secondary index over the conventional relation:
   index lookup, then fetch every listed version and keep the current one. *)
let indexed_q07_conventional rel idx value =
  Buffer_pool.invalidate (Relation_file.pool rel);
  Io_stats.reset (Relation_file.stats rel);
  Secondary_index.reset_io idx;
  let tids = Secondary_index.lookup idx (Value.Int value) in
  let hits = ref 0 in
  let schema = Relation_file.schema rel in
  List.iter
    (fun tid ->
      let tu = Relation_file.read rel tid in
      if Tdb_relation.Tuple.is_current schema tu then incr hits)
    tids;
  (Secondary_index.io idx).Io_stats.reads
  + Io_stats.reads (Relation_file.stats rel)

(* Q07 through the current level of a 2-level index: index lookup, then
   fetch from the primary store. *)
let indexed_q07_two_level store idx value =
  Two_level_store.reset_io store;
  Secondary_index.reset_io idx;
  let tids = Secondary_index.lookup idx (Value.Int value) in
  List.iter (fun tid -> ignore (Two_level_store.fetch_current store tid)) tids;
  (Secondary_index.io idx).Io_stats.reads
  + (Two_level_store.io store).Io_stats.reads

let measure_query_db db src =
  Database.reset_io db;
  match Engine.execute ~config:paper db src with
  | Ok [ Engine.Rows { io; _ } ] -> io.Tdb_query.Executor.input_reads
  | Ok _ -> Tdb_error.internal "expected rows: %s" src
  | Error e -> Tdb_error.internal "bench query failed: %s" e

let figure10 conv env =
  print_endline "== Figure 10: Improvements for the temporal database ==";
  let q text = measure_query_db env.query_db text in
  let qtext qid =
    Option.get (Paper_queries.text qid Workload.Temporal)
  in
  let c0 qid = cost_str conv ~uc:0 qid in
  let c14 qid = cost_str conv ~uc:report_uc qid in
  let s v = string_of_int v in
  let rows =
    [
      [ "Q01"; c0 Paper_queries.Q01; c14 Paper_queries.Q01;
        s (version_scan_cost env.store_h_simple 500);
        s (version_scan_cost env.store_h_clustered 500); "-"; "-"; "-"; "-" ];
      [ "Q02"; c0 Paper_queries.Q02; c14 Paper_queries.Q02;
        s (version_scan_cost env.store_i_simple 500);
        s (version_scan_cost env.store_i_clustered 500); "-"; "-"; "-"; "-" ];
      [ "Q03"; c0 Paper_queries.Q03; c14 Paper_queries.Q03;
        s (scan_all_cost env.store_h_simple);
        s (scan_all_cost env.store_h_clustered); "-"; "-"; "-"; "-" ];
      [ "Q05"; c0 Paper_queries.Q05; c14 Paper_queries.Q05;
        s (current_lookup_cost env.store_h_simple 500);
        s (current_lookup_cost env.store_h_clustered 500); "-"; "-"; "-"; "-" ];
      [ "Q06"; c0 Paper_queries.Q06; c14 Paper_queries.Q06;
        s (current_lookup_cost env.store_i_simple 500);
        s (current_lookup_cost env.store_i_clustered 500); "-"; "-"; "-"; "-" ];
      [ "Q07"; c0 Paper_queries.Q07; c14 Paper_queries.Q07;
        s (current_scan_cost env.store_h_simple);
        s (current_scan_cost env.store_h_clustered);
        s (indexed_q07_conventional (Workload.h_rel env.conv_w) env.idx_1l_heap
             Workload.hot_h_amount);
        s (indexed_q07_conventional (Workload.h_rel env.conv_w) env.idx_1l_hash
             Workload.hot_h_amount);
        s (indexed_q07_two_level env.store_h_clustered env.idx_2l_cur_heap
             Workload.hot_h_amount);
        s (indexed_q07_two_level env.store_h_clustered env.idx_2l_cur_hash
             Workload.hot_h_amount) ];
      [ "Q08"; c0 Paper_queries.Q08; c14 Paper_queries.Q08;
        s (current_scan_cost env.store_i_simple);
        s (current_scan_cost env.store_i_clustered); "-"; "-"; "-"; "-" ];
      [ "Q09"; c0 Paper_queries.Q09; c14 Paper_queries.Q09;
        s (q (qtext Paper_queries.Q09)); "-"; "-"; "-"; "-"; "-" ];
      [ "Q10"; c0 Paper_queries.Q10; c14 Paper_queries.Q10;
        s (q (qtext Paper_queries.Q10)); "-"; "-"; "-"; "-"; "-" ];
    ]
  in
  print_endline
    (Report.table
       ~header:
         [ "Query"; "conv/0"; Printf.sprintf "conv/%d" report_uc; "2L simple";
           "2L clust"; "1L heap"; "1L hash"; "2L-ix heap"; "2L-ix hash" ]
       rows);
  Printf.printf
    "(two-level store sizes: primary %d + history %d pages; 1-level index\n\
    \ %d pages over %d entries; current index %d pages over %d entries;\n\
    \ history index %d pages)\n"
    (Two_level_store.primary_pages env.store_h_clustered)
    (Two_level_store.history_pages env.store_h_clustered)
    (Secondary_index.npages env.idx_1l_heap)
    (Secondary_index.entry_count env.idx_1l_heap)
    (Secondary_index.npages env.idx_2l_cur_heap)
    (Secondary_index.entry_count env.idx_2l_cur_heap)
    (Secondary_index.npages env.idx_2l_hist_heap);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Time-fence pruning experiment                                       *)
(* ------------------------------------------------------------------ *)

let pruning_section () =
  print_endline "== Pruning: time-fence skip-scans, fences on vs off ==";
  print_endline
    "(the same evolving temporal database measured twice per update count;\n\
    \ 'skip' counts pages refuted by their fence, 'ratio' is the fenced\n\
    \ growth rate over the unfenced one, 'same' checks bit-identical rows)";
  let pr =
    Pruning.run ~scale ~config:paper ~kind:Workload.Temporal ~loading:100 ~seed
      ~max_uc ()
  in
  print_endline (Pruning.table pr);
  Printf.printf
    "(rollback queries at UC %d: %d pages skipped, worst growth ratio %s -\n\
    \ their as-of bound precedes the evolution epoch, so every page an\n\
    \ update round writes is fenced out without being read)\n"
    max_uc
    (Pruning.as_of_skipped pr)
    (match Pruning.worst_as_of_ratio pr with
    | Some r -> Report.centi r
    | None -> "-");
  print_newline ();
  pr

(* The regression gate behind the section: pruning must bite on the
   rollback queries and must never change a result. *)
let pruning_guard pr =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "pruning guard failed: %s\n%!" msg;
        exit 1)
      fmt
  in
  if not (Pruning.all_identical pr) then
    fail "fences changed a query result (see the 'same' column)";
  if Pruning.as_of_skipped pr = 0 then
    fail "rollback queries skipped no pages at UC %d" max_uc;
  match Pruning.worst_as_of_ratio pr with
  | None -> fail "no rollback query showed unfenced cost growth"
  | Some r when r >= 1.0 ->
      fail "fenced growth rate did not improve on unfenced (ratio %.2f)" r
  | Some _ -> ()

let json_of_pruning (pr : Pruning.t) =
  let cell (m : Pruning.measurement) =
    Json.Obj
      [
        ("cost_off", Json.int m.cost_off);
        ("cost_on", Json.int m.cost_on);
        ("skipped", Json.int m.skipped);
        ("identical", Json.Bool m.identical);
      ]
  in
  let qseries (s : Pruning.qseries) =
    Json.Obj
      [
        ("query", Json.Str (Paper_queries.name s.qid));
        ("cells", Json.List (List.map cell (Array.to_list s.cells)));
        ("growth_off", Json.Num (Pruning.growth pr s ~on:false));
        ("growth_on", Json.Num (Pruning.growth pr s ~on:true));
        ( "ratio",
          match Pruning.ratio pr s with
          | Some r -> Json.Num r
          | None -> Json.Null );
      ]
  in
  Json.Obj
    [
      ("kind", Json.Str (Workload.kind_to_string pr.kind));
      ("loading", Json.int pr.loading);
      ("max_uc", Json.int pr.max_uc);
      ("queries", Json.List (List.map qseries pr.series));
      ("all_identical", Json.Bool (Pruning.all_identical pr));
      ( "as_of",
        Json.Obj
          [
            ( "queries",
              Json.List
                (List.map
                   (fun q -> Json.Str (Paper_queries.name q))
                   Pruning.as_of_queries) );
            ("skipped", Json.int (Pruning.as_of_skipped pr));
            ( "worst_ratio",
              match Pruning.worst_as_of_ratio pr with
              | Some r -> Json.Num r
              | None -> Json.Null );
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_buffers (conv_w : Workload.t) =
  print_endline "== Ablation: buffer pool size (temporal 100%, UC=14) ==";
  let resize frames =
    Buffer_pool.resize (Relation_file.pool (Workload.h_rel conv_w)) ~frames;
    Buffer_pool.resize (Relation_file.pool (Workload.i_rel conv_w)) ~frames
  in
  let qs = Paper_queries.[ Q01; Q07; Q09; Q11; Q12 ] in
  let rows =
    List.map
      (fun frames ->
        resize frames;
        string_of_int frames
        :: List.map
             (fun qid ->
               let src = Option.get (Paper_queries.text qid Workload.Temporal) in
               string_of_int (Evolve.measure_query ~config:paper conv_w src))
             qs)
      [ 1; 8; 64; 4096 ]
  in
  resize 1;
  print_endline
    (Report.table
       ~header:("frames/relation" :: List.map Paper_queries.name qs)
       rows);
  print_endline
    "(the paper fixes one buffer per relation; single-access and one-pass\n\
    \ queries are insensitive, while Q11's repeated inner scans collapse\n\
    \ once the pool holds the whole inner relation)";
  print_newline ()

let ablation_crossover runs =
  print_endline
    "== Ablation: loading factor crossover (temporal database, Q10) ==";
  (* The paper's section 6: "better performance is achieved with a lower
     loading factor when the update count is high", its example being Q10's
     3385 pages at 50% vs 2233 at 100% for update count 0. *)
  let t100 = List.find (fun r -> r.kind = Workload.Temporal && r.loading = 100) runs in
  let t50 = List.find (fun r -> r.kind = Workload.Temporal && r.loading = 50) runs in
  let rows =
    List.init (max_uc + 1) (fun uc ->
        [
          string_of_int uc;
          cost_str t100 ~uc Paper_queries.Q10;
          cost_str t50 ~uc Paper_queries.Q10;
          (if cost t50 ~uc Paper_queries.Q10 < cost t100 ~uc Paper_queries.Q10
           then "50%" else "100%");
        ])
  in
  print_endline
    (Report.table ~header:[ "UC"; "100% loading"; "50% loading"; "cheaper" ] rows);
  print_endline
    "(lower loading costs more while the update count is low - more primary\n\
    \ pages to read - and wins once overflow chains dominate: section 6's\n\
    \ trade-off.  For a pure sequential scan like Q07, 100% loading stays\n\
    \ ahead at every update count.)";
  print_newline ()

let ablation_overflow_placement () =
  print_endline
    "== Ablation: overflow placement, first-fit vs tail-append ==";
  print_endline
    "(part 1 - append-only evolution, rollback database at 50% loading:\n\
    \ the two policies coincide, because under the section-4 semantics no\n\
    \ slot is ever freed and slack only ever exists at the chain tail.\n\
    \ Figure 8(b)'s staircase is tail slack from the fillfactor, not\n\
    \ mid-chain reuse)";
  let measure policy =
    let w = Workload.build ~scale ~kind:Workload.Rollback ~loading:50 ~seed () in
    Relation_file.set_first_fit (Workload.h_rel w) policy;
    let q01 = Option.get (Paper_queries.text Paper_queries.Q01 Workload.Rollback) in
    List.init 9 (fun uc ->
        if uc > 0 then Evolve.uniform_round w ~round:uc;
        Evolve.measure_query ~config:paper w q01)
  in
  let first_fit = measure true in
  let tail = measure false in
  let rows =
    List.mapi
      (fun uc (a, b) -> [ string_of_int uc; string_of_int a; string_of_int b ])
      (List.combine first_fit tail)
  in
  print_endline
    (Report.table ~header:[ "UC"; "first-fit (Q01)"; "tail-append (Q01)" ] rows);
  print_endline
    "(part 2 - the policies diverge when holes open on interior chain pages\n\
    \ while the tail is full: here half the records on the first three pages\n\
    \ of a 4-page chain are deleted, then two pages' worth of fresh records\n\
    \ arrive.  Steady-state churn workloads re-converge - holes migrate to\n\
    \ the tail eventually - so this is the adversarial corner.)";
  let demo policy =
    let schema = Workload.schema_for Workload.Static in
    let rel = Relation_file.create ~name:"demo" ~schema () in
    (* all keys congruent mod 4: one bucket holds everything, chained over
       4 pages; the other 3 buckets stay empty *)
    for k = 0 to 31 do
      ignore
        (Relation_file.insert rel
           [| Value.Int (4 * k); Value.Int 0; Value.Int 0; Value.Str "x" |])
    done;
    Relation_file.modify rel (Relation_file.Hash { key_attr = 0; fillfactor = 100 });
    Relation_file.set_first_fit rel policy;
    (* punch holes in the interior pages (the first 24 records) *)
    let victims = ref [] in
    Relation_file.scan rel (fun tid tu ->
        match tu.(0) with
        | Value.Int key when key < 96 && key / 4 mod 2 = 0 ->
            victims := tid :: !victims
        | _ -> ());
    List.iter (Relation_file.delete rel) !victims;
    for i = 0 to 15 do
      ignore
        (Relation_file.insert rel
           [| Value.Int (4000 + (4 * i)); Value.Int 1; Value.Int 0; Value.Str "x" |])
    done;
    Relation_file.npages rel
  in
  Printf.printf
    "  chain size after refill: first-fit %d pages, tail-append %d pages\n\n"
    (demo true) (demo false)

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock micro-benchmarks                                *)
(* ------------------------------------------------------------------ *)

let timing (temporal100_w : Workload.t) env =
  print_endline "== Timing (bechamel): wall clock per operation ==";
  let open Bechamel in
  let query name src w =
    Test.make ~name
      (Staged.stage (fun () ->
           ignore (Evolve.measure_query ~config:paper w src)))
  in
  let tests =
    [
      Test.make ~name:"fig5/size-scan"
        (Staged.stage (fun () ->
             ignore (Relation_file.npages (Workload.h_rel temporal100_w))));
      query "fig6/q01-version-scan"
        (Option.get (Paper_queries.text Paper_queries.Q01 Workload.Temporal))
        temporal100_w;
      query "fig7/q07-sequential-scan"
        (Option.get (Paper_queries.text Paper_queries.Q07 Workload.Temporal))
        temporal100_w;
      query "fig8/q03-rollback"
        (Option.get (Paper_queries.text Paper_queries.Q03 Workload.Temporal))
        temporal100_w;
      query "fig9/q12-all-clauses"
        (Option.get (Paper_queries.text Paper_queries.Q12 Workload.Temporal))
        temporal100_w;
      Test.make ~name:"fig10/q07-two-level-hash-index"
        (Staged.stage (fun () ->
             ignore
               (indexed_q07_two_level env.store_h_clustered env.idx_2l_cur_hash
                  Workload.hot_h_amount)));
    ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg =
      Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 10) ()
    in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false
        ~predictors:[| Measure.run |]
    in
    let raw = Benchmark.all cfg [ instance ] test in
    let results = Analyze.all ols instance raw in
    results
  in
  List.iter
    (fun test ->
      let results = benchmark test in
      Hashtbl.iter
        (fun name ols ->
          let ns =
            match Analyze.OLS.estimates ols with
            | Some [ e ] -> Printf.sprintf "%.0f ns/run" e
            | _ -> "n/a"
          in
          Printf.printf "  %-36s %s\n%!" name ns)
        results)
    tests;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Parallel execution: wall time against worker domains                 *)
(* ------------------------------------------------------------------ *)

(* The domain-pool executor must be invisible in results and visible only
   in wall time.  Each query runs at 1..4 workers against the same
   database; the rows are compared against the workers=1 run verbatim
   (the partition-order merge is deterministic, so even row order must
   survive), and the best-of-runs wall time gives the speedup curve.
   Measured at update count 0 and at max_uc, since long version chains
   are where partitioned scans have work to divide. *)

type parallel_cell = {
  pl_workers : int;
  pl_wall_s : float;  (* best single-run wall time *)
  pl_identical : bool;  (* rows verbatim-equal to the workers=1 run *)
}

type parallel_series = {
  pl_qid : Paper_queries.id;
  pl_uc : int;
  pl_cells : parallel_cell list;
}

let parallel_queries = Paper_queries.[ Q01; Q03; Q04; Q11 ]
let parallel_workers = [ 1; 2; 3; 4 ]

let parallel_rows ~config (w : Workload.t) src =
  match Engine.execute ~config w.Workload.db src with
  | Ok [ Engine.Rows { tuples; _ } ] ->
      List.map
        (fun tu ->
          String.concat "|" (Array.to_list (Array.map Value.to_string tu)))
        tuples
  | Ok _ -> Tdb_error.internal "expected rows: %s" src
  | Error e -> Tdb_error.internal "bench query failed: %s" e

(* Best wall time of one query under [config]: at least 3 runs, then
   more for up to 0.3 s (at most 100). *)
let best_wall ~config w src =
  let best = ref infinity in
  let runs = ref 0 in
  let deadline = Unix.gettimeofday () +. 0.3 in
  while !runs < 3 || (!runs < 100 && Unix.gettimeofday () < deadline) do
    let t0 = Unix.gettimeofday () in
    ignore (parallel_rows ~config w src);
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    incr runs
  done;
  !best

let parallel_measure (w : Workload.t) ~uc qid =
  let src = Option.get (Paper_queries.text qid Workload.Temporal) in
  let reference = parallel_rows ~config:paper w src in
  let cells =
    List.map
      (fun workers ->
        let config = { paper with workers } in
        let rows = parallel_rows ~config w src in
        {
          pl_workers = workers;
          pl_wall_s = best_wall ~config w src;
          pl_identical = rows = reference;
        })
      parallel_workers
  in
  { pl_qid = qid; pl_uc = uc; pl_cells = cells }

let parallel_section (evolved : Workload.t) =
  print_endline "== Parallel: wall time vs worker domains (temporal 100%) ==";
  let fresh = Workload.build ~scale ~kind:Workload.Temporal ~loading:100 ~seed () in
  let series =
    List.map (parallel_measure fresh ~uc:0) parallel_queries
    @ List.map (parallel_measure evolved ~uc:max_uc) parallel_queries
  in
  let rows =
    List.map
      (fun s ->
        let wall k = (List.nth s.pl_cells k).pl_wall_s in
        (Paper_queries.name s.pl_qid :: string_of_int s.pl_uc
        :: List.map
             (fun c -> Printf.sprintf "%.2f" (c.pl_wall_s *. 1e3))
             s.pl_cells)
        @ [
            Printf.sprintf "%.2fx" (wall 0 /. wall 3);
            (if List.for_all (fun c -> c.pl_identical) s.pl_cells then "yes"
             else "NO");
          ])
      series
  in
  print_endline
    (Report.table
       ~header:
         [ "Query"; "uc"; "w=1 ms"; "w=2 ms"; "w=3 ms"; "w=4 ms";
           "speedup"; "same rows" ]
       rows);
  Printf.printf
    "(best of repeated runs at each worker count; this machine recommends\n\
    \ %d domain(s), speedups only appear above one)\n\n"
    (Domain.recommended_domain_count ());
  series

(* Row identity across worker counts is a correctness property, not a
   performance one: any divergence fails the benchmark run. *)
let parallel_guard series =
  List.iter
    (fun s ->
      List.iter
        (fun c ->
          if not c.pl_identical then begin
            Printf.eprintf
              "FATAL: %s at uc %d returned different rows with %d workers\n"
              (Paper_queries.name s.pl_qid) s.pl_uc c.pl_workers;
            exit 1
          end)
        s.pl_cells)
    series

let json_of_parallel series =
  Json.Obj
    [
      ("recommended_domains", Json.int (Domain.recommended_domain_count ()));
      ("workers", Json.List (List.map Json.int parallel_workers));
      ( "queries",
        Json.List
          (List.map
             (fun s ->
               let w1 = (List.hd s.pl_cells).pl_wall_s in
               Json.Obj
                 [
                   ("query", Json.Str (Paper_queries.name s.pl_qid));
                   ("uc", Json.int s.pl_uc);
                   ( "cells",
                     Json.List
                       (List.map
                          (fun c ->
                            Json.Obj
                              [
                                ("workers", Json.int c.pl_workers);
                                ("wall_s", Json.Num c.pl_wall_s);
                                ("speedup", Json.Num (w1 /. c.pl_wall_s));
                                ("identical", Json.Bool c.pl_identical);
                              ])
                          s.pl_cells) );
                   ( "identical",
                     Json.Bool
                       (List.for_all (fun c -> c.pl_identical) s.pl_cells) );
                 ])
             series) );
    ]

(* ------------------------------------------------------------------ *)
(* Scale sweep: where parallelism starts to pay                        *)
(* ------------------------------------------------------------------ *)

(* The paper's 1024-row relations are too small to amortize domain
   fan-out (BENCH_5's Q03 ran at 0.44x with 4 workers).  This section
   rebuilds the temporal workload at a ladder of scales — independent of
   the --scale flag, so the canonical scale-1 document still probes the
   large-data regime — evolves each two rounds to give history some
   depth, and measures wall time at 1/2/4 workers with fence pruning on
   (the tentpole claim is that shard pruning and partition-parallelism
   compose).  Row identity across worker counts is a hard failure, as in
   the parallel section; the speedup gates live in Compare, where
   recommended_domains decides whether this host's numbers are
   meaningful. *)

type scale_cell = {
  sc_workers : int;
  sc_wall_s : float;  (* best single-run wall time *)
  sc_identical : bool;  (* rows verbatim-equal to the workers=1 run *)
}

type scale_series = {
  sc_qid : Paper_queries.id;
  sc_scale : int;
  sc_cells : scale_cell list;
}

let scale_sweep_queries = Paper_queries.[ Q01; Q03; Q04; Q09; Q11 ]
let scale_sweep_scales = if smoke then [ 1; 10 ] else [ 1; 10; 100 ]
let scale_sweep_workers = [ 1; 2; 4 ]
let scale_sweep_rounds = 2

(* The sweep runs with fence pruning on. *)
let scale_measure (w : Workload.t) qid =
  let src = Option.get (Paper_queries.text qid Workload.Temporal) in
  let pruned = { paper with pruning = true } in
  let reference = parallel_rows ~config:pruned w src in
  let cells =
    List.map
      (fun workers ->
        let config = { pruned with workers } in
        let rows = parallel_rows ~config w src in
        {
          sc_workers = workers;
          sc_wall_s = best_wall ~config w src;
          sc_identical = rows = reference;
        })
      scale_sweep_workers
  in
  { sc_qid = qid; sc_scale = w.Workload.scale; sc_cells = cells }

let scale_section () =
  print_endline
    "== Scale sweep: wall time vs workers as the data grows (temporal 100%) ==";
  let series =
    List.concat_map
      (fun sc ->
        let w =
          Workload.build ~scale:sc ~kind:Workload.Temporal ~loading:100 ~seed ()
        in
        for round = 1 to scale_sweep_rounds do
          Evolve.uniform_round w ~round
        done;
        List.map (scale_measure w) scale_sweep_queries)
      scale_sweep_scales
  in
  let rows =
    List.map
      (fun s ->
        let wall k = (List.nth s.sc_cells k).sc_wall_s in
        (Paper_queries.name s.sc_qid :: string_of_int s.sc_scale
        :: List.map
             (fun c -> Printf.sprintf "%.2f" (c.sc_wall_s *. 1e3))
             s.sc_cells)
        @ [
            Printf.sprintf "%.2fx" (wall 0 /. wall 2);
            (if List.for_all (fun c -> c.sc_identical) s.sc_cells then "yes"
             else "NO");
          ])
      series
  in
  print_endline
    (Report.table
       ~header:
         [ "Query"; "scale"; "w=1 ms"; "w=2 ms"; "w=4 ms"; "speedup";
           "same rows" ]
       rows);
  Printf.printf
    "(each scale is a fresh temporal database evolved %d rounds, measured\n\
    \ with fence pruning on; best of repeated runs; this machine recommends\n\
    \ %d domain(s), speedups only appear above one)\n\n"
    scale_sweep_rounds
    (Domain.recommended_domain_count ());
  series

let scale_guard series =
  List.iter
    (fun s ->
      List.iter
        (fun c ->
          if not c.sc_identical then begin
            Printf.eprintf
              "FATAL: %s at scale %d returned different rows with %d workers\n"
              (Paper_queries.name s.sc_qid) s.sc_scale c.sc_workers;
            exit 1
          end)
        s.sc_cells)
    series

let json_of_scale_sweep series =
  Json.Obj
    [
      ("recommended_domains", Json.int (Domain.recommended_domain_count ()));
      ("scales", Json.List (List.map Json.int scale_sweep_scales));
      ("workers", Json.List (List.map Json.int scale_sweep_workers));
      ("rounds", Json.int scale_sweep_rounds);
      ( "queries",
        Json.List
          (List.map
             (fun s ->
               let w1 = (List.hd s.sc_cells).sc_wall_s in
               Json.Obj
                 [
                   ("query", Json.Str (Paper_queries.name s.sc_qid));
                   ("scale", Json.int s.sc_scale);
                   ( "cells",
                     Json.List
                       (List.map
                          (fun c ->
                            Json.Obj
                              [
                                ("workers", Json.int c.sc_workers);
                                ("wall_s", Json.Num c.sc_wall_s);
                                ("speedup", Json.Num (w1 /. c.sc_wall_s));
                                ("identical", Json.Bool c.sc_identical);
                              ])
                          s.sc_cells) );
                   ( "identical",
                     Json.Bool
                       (List.for_all (fun c -> c.sc_identical) s.sc_cells) );
                 ])
             series) );
    ]

(* ------------------------------------------------------------------ *)
(* Durability: the write-ahead journal's cost on the update workload   *)
(* ------------------------------------------------------------------ *)

(* The statement journal is a correctness feature, so the numbers worth
   publishing are (a) that every configuration of the same update
   workload ends with bit-identical relation contents and (b) what the
   journal's pre-images, commit records and group fsyncs cost.  The
   workload is file-backed (the journal only exists for file-backed
   databases) and runs three ways:

     journal    - the journal on, checkpoint at the end (the default)
     buffered   - no journal: writes pool in memory until the checkpoint,
                  so a crash loses everything since the last sync
     sync/stmt  - no journal, [Database.sync] after every statement: the
                  naive way to buy the same statement-level durability

   Journal vs buffered is fsync against no-I/O-at-all — an honest
   number, but it measures the disk, so it is published ungated.  The
   gate is journal vs sync-per-statement: both pay durable I/O per
   statement, and the journal (one group fsync of a few records) must
   beat flushing every dirty page plus two atomic metadata rewrites. *)

type durability_cell = {
  du_phase : string;
  du_on_s : float;  (* wall time with the journal *)
  du_off_s : float;  (* wall time fully buffered *)
  du_naive_s : float;  (* wall time with sync-per-statement *)
}

type durability = {
  du_rows : int;
  du_sweeps : int;
  du_cells : durability_cell list;
  du_identical : bool;  (* raw relation dumps verbatim-equal across runs *)
  du_vs_buffered : float;  (* journalled / buffered total wall time *)
  du_vs_naive : float;  (* journalled / sync-per-statement total wall time *)
}

(* The journal must not cost more than the durability it replaces. *)
let durability_ceiling = 1.0
let durability_rows = if smoke then 40 else 150
let durability_sweeps = if smoke then 2 else 4

let durability_exec db src =
  match Engine.execute ~config:paper db src with
  | Ok _ -> ()
  | Error e -> Tdb_error.internal "durability workload failed on %s: %s" src e

(* The identity check compares the raw stored tuples — every attribute,
   implicit stamps included — not query output, so a journal bug that
   corrupts history versions invisible to as-of-now queries still trips
   it. *)
let durability_dump db =
  List.concat_map
    (fun name ->
      match Database.find_relation db name with
      | None -> []
      | Some rel ->
          let rows = ref [] in
          Relation_file.scan rel (fun _ tu ->
              rows :=
                (name ^ "|"
                ^ String.concat "|"
                    (Array.to_list (Array.map Value.to_string tu)))
                :: !rows);
          !rows)
    (Database.relation_names db)
  |> List.sort compare

let durability_run ~journal ~sync_each dir =
  let db =
    match Database.create ~dir ~journal () with
    | Ok db -> db
    | Error e -> Tdb_error.internal "cannot open %s: %s" dir e
  in
  let clock = Database.clock db in
  let stmt src =
    durability_exec db src;
    if sync_each then Database.sync db
  in
  let cell phase f =
    let t0 = Unix.gettimeofday () in
    f ();
    (phase, Unix.gettimeofday () -. t0)
  in
  durability_exec db "create persistent interval emp (name = c12, salary = i4)";
  durability_exec db "range of e is emp";
  let cells =
    [
      cell "append" (fun () ->
          for i = 1 to durability_rows do
            Clock.advance clock 60;
            stmt
              (Printf.sprintf "append to emp (name = \"w%04d\", salary = %d)" i
                 (10_000 + (i mod 97)))
          done);
      cell "replace" (fun () ->
          for _ = 1 to durability_sweeps do
            Clock.advance clock 86_400;
            stmt "replace e (salary = e.salary + 100)"
          done);
      cell "delete" (fun () ->
          Clock.advance clock 86_400;
          stmt "delete e where e.salary < 10120");
      cell "checkpoint" (fun () -> Database.sync db);
    ]
  in
  let dump = durability_dump db in
  Database.close db;
  (cells, dump)

let durability_section () =
  print_endline "== Durability: write-ahead journal overhead (wall clock) ==";
  let with_tmp_dir tag f =
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "tdb_bench_dur_%d_%s" (Unix.getpid ()) tag)
    in
    let rm_rf () =
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end
    in
    rm_rf ();
    Sys.mkdir dir 0o755;
    Fun.protect ~finally:rm_rf (fun () -> f dir)
  in
  let on_cells, on_dump =
    with_tmp_dir "on" (durability_run ~journal:true ~sync_each:false)
  in
  let off_cells, off_dump =
    with_tmp_dir "off" (durability_run ~journal:false ~sync_each:false)
  in
  let naive_cells, naive_dump =
    with_tmp_dir "naive" (durability_run ~journal:false ~sync_each:true)
  in
  let cells =
    List.map2
      (fun ((phase, on_s), (phase', off_s)) (phase'', naive_s) ->
        assert (phase = phase' && phase = phase'');
        { du_phase = phase; du_on_s = on_s; du_off_s = off_s;
          du_naive_s = naive_s })
      (List.combine on_cells off_cells)
      naive_cells
  in
  let total f = List.fold_left (fun acc c -> acc +. f c) 0. cells in
  let on_total = total (fun c -> c.du_on_s) in
  let off_total = total (fun c -> c.du_off_s) in
  let naive_total = total (fun c -> c.du_naive_s) in
  let ratio a b = if b > 0. then a /. b else 1. in
  let d =
    {
      du_rows = durability_rows;
      du_sweeps = durability_sweeps;
      du_cells = cells;
      du_identical = on_dump = off_dump && on_dump = naive_dump;
      du_vs_buffered = ratio on_total off_total;
      du_vs_naive = ratio on_total naive_total;
    }
  in
  let row c =
    [
      c.du_phase;
      Printf.sprintf "%.2f" (c.du_on_s *. 1e3);
      Printf.sprintf "%.2f" (c.du_off_s *. 1e3);
      Printf.sprintf "%.2f" (c.du_naive_s *. 1e3);
    ]
  in
  print_endline
    (Report.table
       ~header:[ "phase"; "journal ms"; "buffered ms"; "sync/stmt ms" ]
       (List.map row cells
       @ [
           [
             "total";
             Printf.sprintf "%.2f" (on_total *. 1e3);
             Printf.sprintf "%.2f" (off_total *. 1e3);
             Printf.sprintf "%.2f" (naive_total *. 1e3);
           ];
         ]));
  Printf.printf
    "(%d rows, %d replace sweeps; stored tuples %s across configurations;\n\
    \ journal costs %.2fx buffered writes, %.2fx of sync-per-statement —\n\
    \ the latter is gated at %.1fx)\n\n"
    d.du_rows d.du_sweeps
    (if d.du_identical then "identical" else "DIFFER")
    d.du_vs_buffered d.du_vs_naive durability_ceiling;
  d

(* Both halves of the gate are hard failures: the journal must never
   change what a statement stores, and the statement durability it
   provides must cost no more than the naive sync-per-statement way of
   getting the same guarantee. *)
let durability_guard d =
  if not d.du_identical then begin
    Printf.eprintf
      "FATAL: durability configurations stored different tuples\n";
    exit 1
  end;
  if d.du_vs_naive > durability_ceiling then begin
    Printf.eprintf
      "FATAL: journal costs %.2fx of sync-per-statement (ceiling %.1fx)\n"
      d.du_vs_naive durability_ceiling;
    exit 1
  end

let json_of_durability d =
  Json.Obj
    [
      ("rows", Json.int d.du_rows);
      ("replace_sweeps", Json.int d.du_sweeps);
      ("identical", Json.Bool d.du_identical);
      ("overhead_vs_buffered", Json.Num d.du_vs_buffered);
      ("overhead_vs_sync_per_stmt", Json.Num d.du_vs_naive);
      ("ceiling", Json.Num durability_ceiling);
      ( "phases",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("phase", Json.Str c.du_phase);
                   ("journal_s", Json.Num c.du_on_s);
                   ("buffered_s", Json.Num c.du_off_s);
                   ("sync_per_stmt_s", Json.Num c.du_naive_s);
                 ])
             d.du_cells) );
    ]

(* ------------------------------------------------------------------ *)
(* Concurrency: snapshot readers vs the big lock                       *)
(* ------------------------------------------------------------------ *)

(* The session layer's claim: read-only statements pin the published
   commit epoch and run with no lock held, so N readers scale while one
   writer keeps committing.  Three cells measure it — 1 reader and 4
   readers through snapshot sessions, plus 4 readers through the
   engine's serialized path (the old big-lock build, every statement
   through one mutex) as the contrast.  Each cell gets a fresh workload
   so accumulated versions don't tilt later cells; readers run keyed
   probes, the writer cycles temporal replaces.  The speedup gate (4r
   snapshot throughput over 1r) lives in Compare, where
   recommended_domains decides whether this host's numbers mean
   anything. *)

type concurrency_cell = {
  cy_readers : int;
  cy_mode : string;  (* "snapshot" | "serialized" *)
  cy_reader_stmts : int;
  cy_reader_per_s : float;
  cy_p50_ms : float;
  cy_p99_ms : float;
  cy_writer_stmts : int;
}

type concurrency = {
  cy_duration_s : float;
  cy_cells : concurrency_cell list;
  cy_speedup : float;  (* 4r/1w snapshot reader throughput over 1r/1w *)
}

let concurrency_duration = if smoke then 0.3 else 1.0

let concurrency_measure ~readers ~mode =
  let w = Workload.build ~scale ~kind:Workload.Temporal ~loading:100 ~seed () in
  let inst = Db_instance.of_database ~config:paper w.Workload.db in
  let nkeys = Workload.n_tuples * w.Workload.scale in
  let stop = Atomic.make false in
  let execute session src =
    match mode with
    | `Serialized ->
        Result.map (fun _ -> ()) (Engine.execute ~config:paper w.Workload.db src)
    | `Snapshot -> Result.map (fun _ -> ()) (Session.execute_one session src)
  in
  let writer () =
    let s = Session.open_ ~name:"bench-w" inst in
    let n = ref 0 in
    let i = ref 0 in
    while not (Atomic.get stop) do
      let src =
        Printf.sprintf "replace h (amount = %d) where h.id = %d;"
          (1000 + (!i mod 9000))
          (!i mod nkeys)
      in
      incr i;
      (match execute s src with
      | Ok () -> incr n
      | Error e -> Tdb_error.internal "bench concurrency writer: %s" e)
    done;
    Session.close s;
    !n
  in
  let reader r () =
    let s = Session.open_ ~name:(Printf.sprintf "bench-r%d" r) inst in
    let lats = ref [] in
    let i = ref (r * 131) in
    while not (Atomic.get stop) do
      let src =
        Printf.sprintf "retrieve (h.amount) where h.id = %d;" (!i mod nkeys)
      in
      incr i;
      let t0 = Unix.gettimeofday () in
      match execute s src with
      | Ok () -> lats := (Unix.gettimeofday () -. t0) :: !lats
      | Error e -> Tdb_error.internal "bench concurrency reader: %s" e
    done;
    Session.close s;
    !lats
  in
  let wd = Domain.spawn writer in
  let rds = List.init readers (fun r -> Domain.spawn (reader r)) in
  Unix.sleepf concurrency_duration;
  Atomic.set stop true;
  let writer_stmts = Domain.join wd in
  let lats = Array.of_list (List.concat_map Domain.join rds) in
  Array.sort compare lats;
  let pct p =
    match Array.length lats with
    | 0 -> 0.0
    | n -> 1e3 *. lats.(min (n - 1) (int_of_float (p *. float_of_int n)))
  in
  let stmts = Array.length lats in
  Database.close w.Workload.db;
  {
    cy_readers = readers;
    cy_mode =
      (match mode with `Snapshot -> "snapshot" | `Serialized -> "serialized");
    cy_reader_stmts = stmts;
    cy_reader_per_s = float_of_int stmts /. concurrency_duration;
    cy_p50_ms = pct 0.50;
    cy_p99_ms = pct 0.99;
    cy_writer_stmts = writer_stmts;
  }

let concurrency_section () =
  print_endline
    "== Concurrency: snapshot readers vs the big lock (1 writer) ==";
  let cells =
    [
      concurrency_measure ~readers:1 ~mode:`Snapshot;
      concurrency_measure ~readers:4 ~mode:`Snapshot;
      concurrency_measure ~readers:4 ~mode:`Serialized;
    ]
  in
  let per_s ~readers ~mode =
    List.find_map
      (fun c ->
        if c.cy_readers = readers && c.cy_mode = mode then
          Some c.cy_reader_per_s
        else None)
      cells
  in
  let speedup =
    match (per_s ~readers:4 ~mode:"snapshot", per_s ~readers:1 ~mode:"snapshot")
    with
    | Some four, Some one when one > 0.0 -> four /. one
    | _ -> 0.0
  in
  print_endline
    (Report.table
       ~header:
         [ "readers"; "mode"; "stmts/s"; "p50 ms"; "p99 ms"; "writer stmts" ]
       (List.map
          (fun c ->
            [
              string_of_int c.cy_readers;
              c.cy_mode;
              Printf.sprintf "%.0f" c.cy_reader_per_s;
              Printf.sprintf "%.3f" c.cy_p50_ms;
              Printf.sprintf "%.3f" c.cy_p99_ms;
              string_of_int c.cy_writer_stmts;
            ])
          cells));
  Printf.printf
    "(4 snapshot readers run %.2fx the statements of 1 while a writer\n\
    \ commits; this machine recommends %d domain(s), scaling only appears\n\
    \ above one)\n\n"
    speedup
    (Domain.recommended_domain_count ());
  { cy_duration_s = concurrency_duration; cy_cells = cells; cy_speedup = speedup }

(* Zero completed reader statements in any cell means the harness never
   ran — a correctness failure, not a slow machine. *)
let concurrency_guard c =
  List.iter
    (fun cell ->
      if cell.cy_reader_stmts = 0 then begin
        Printf.eprintf
          "FATAL: concurrency cell %dr/%s completed no reader statements\n"
          cell.cy_readers cell.cy_mode;
        exit 1
      end)
    c.cy_cells

let json_of_concurrency c =
  Json.Obj
    [
      ("recommended_domains", Json.int (Domain.recommended_domain_count ()));
      ("duration_s", Json.Num c.cy_duration_s);
      ("speedup_4r_vs_1r", Json.Num c.cy_speedup);
      ( "cells",
        Json.List
          (List.map
             (fun cell ->
               Json.Obj
                 [
                   ("readers", Json.int cell.cy_readers);
                   ("writers", Json.int 1);
                   ("mode", Json.Str cell.cy_mode);
                   ("reader_stmts", Json.int cell.cy_reader_stmts);
                   ("reader_stmts_per_s", Json.Num cell.cy_reader_per_s);
                   ("p50_ms", Json.Num cell.cy_p50_ms);
                   ("p99_ms", Json.Num cell.cy_p99_ms);
                   ("writer_stmts", Json.int cell.cy_writer_stmts);
                 ])
             c.cy_cells) );
    ]

(* ------------------------------------------------------------------ *)
(* Temporal join: the nested loop vs the merge join                    *)
(* ------------------------------------------------------------------ *)

(* Every other section pins the temporal-algebra operators off so the
   paper grid keeps measuring the nested-loop cost model; this section
   is where the operators are allowed to run, measured against that
   fallback on the same queries.  Three query classes:

     Q09c - Q09 with the equi-join unkeyed (amount = amount instead of
            id = amount), so tuple substitution cannot rescue it: the
            nested loop rescans the inner relation per outer batch and
            evaluates every pair, the merge join partitions on the
            equi-key and sweeps.  Quadratic vs near-linear - the
            nested wall explodes with update count, so this cell is
            only measured on a paper-sized uc-0 database.
     Q11  - the paper's temporal join, verbatim: as-of selective, so
            both strategies are feasible at any scale.
     Q12  - all clauses combined, verbatim: so selective that the two
            strategies should tie - the merge join must not tax the
            queries that never needed it.

   Row identity between the strategies is a hard failure; the speedup
   gate lives in Compare and only binds cells whose nested wall clears
   the noise floor on runners with the cores to mean it. *)

type tjoin_cell = {
  tj_query : string;
  tj_uc : int;
  tj_scale : int;
  tj_rows : int;
  tj_off_s : float;  (* best nested-loop wall *)
  tj_on_s : float;  (* best merge-join wall *)
  tj_identical : bool;
}

let tjoin_noise_floor_s = 0.05

let q09c_text =
  {|retrieve (h.id, i.id, i.amount) where h.amount = i.amount
    when h overlap i and i overlap "now"|}

let tjoin_measure (w : Workload.t) ~uc ~query src =
  let off = { paper with temporal_join = false } in
  let on = { paper with temporal_join = true } in
  let off_rows = parallel_rows ~config:off w src in
  let on_rows = parallel_rows ~config:on w src in
  let off_s = best_wall ~config:off w src in
  let on_s = best_wall ~config:on w src in
  {
    tj_query = query;
    tj_uc = uc;
    tj_scale = w.Workload.scale;
    tj_rows = List.length on_rows;
    tj_off_s = off_s;
    tj_on_s = on_s;
    tj_identical = on_rows = off_rows;
  }

let tjoin_section (evolved : Workload.t) =
  print_endline "== Temporal join: nested loop vs merge join (temporal 100%) ==";
  let paper_queries w ~uc =
    List.filter_map
      (fun qid ->
        Option.map
          (tjoin_measure w ~uc ~query:(Paper_queries.name qid))
          (Paper_queries.text qid Workload.Temporal))
      Paper_queries.[ Q11; Q12 ]
  in
  let fresh = Workload.build ~scale ~kind:Workload.Temporal ~loading:100 ~seed () in
  let paper1 =
    if scale = 1 then fresh
    else Workload.build ~scale:1 ~kind:Workload.Temporal ~loading:100 ~seed ()
  in
  let cells =
    (* the unkeyed join on the paper-sized database only: its nested
       wall is quadratic in the version count *)
    [ tjoin_measure paper1 ~uc:0 ~query:"Q09c" q09c_text ]
    @ paper_queries fresh ~uc:0
    @ paper_queries evolved ~uc:max_uc
    @
    (* the large-data regime for the selective joins, independent of
       --scale, as in the scale sweep; a smoke run stays small *)
    if smoke || scale >= 10 then []
    else begin
      let w10 =
        Workload.build ~scale:10 ~kind:Workload.Temporal ~loading:100 ~seed ()
      in
      for round = 1 to max_uc do
        Evolve.uniform_round w10 ~round
      done;
      paper_queries w10 ~uc:max_uc
    end
  in
  print_endline
    (Report.table
       ~header:
         [ "Query"; "uc"; "scale"; "rows"; "nested ms"; "merge ms";
           "speedup"; "same rows" ]
       (List.map
          (fun c ->
            [
              c.tj_query;
              string_of_int c.tj_uc;
              string_of_int c.tj_scale;
              string_of_int c.tj_rows;
              Printf.sprintf "%.2f" (c.tj_off_s *. 1e3);
              Printf.sprintf "%.2f" (c.tj_on_s *. 1e3);
              Printf.sprintf "%.2fx" (c.tj_off_s /. c.tj_on_s);
              (if c.tj_identical then "yes" else "NO");
            ])
          cells));
  print_endline
    "(best of repeated runs per strategy; Q09c is Q09 with the equi-join\n\
    \ unkeyed, measured on the paper-sized uc-0 database because its\n\
    \ nested-loop wall is quadratic in the version count)\n";
  cells

let tjoin_guard cells =
  List.iter
    (fun c ->
      if not c.tj_identical then begin
        Printf.eprintf
          "FATAL: %s at uc %d scale %d returned different rows from the \
           merge join\n"
          c.tj_query c.tj_uc c.tj_scale;
        exit 1
      end)
    cells

let json_of_tjoin cells =
  Json.Obj
    [
      ("recommended_domains", Json.int (Domain.recommended_domain_count ()));
      ("noise_floor_s", Json.Num tjoin_noise_floor_s);
      ( "queries",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("query", Json.Str c.tj_query);
                   ("uc", Json.int c.tj_uc);
                   ("scale", Json.int c.tj_scale);
                   ("rows", Json.int c.tj_rows);
                   ("off_wall_s", Json.Num c.tj_off_s);
                   ("on_wall_s", Json.Num c.tj_on_s);
                   ("speedup", Json.Num (c.tj_off_s /. c.tj_on_s));
                   ("identical", Json.Bool c.tj_identical);
                 ])
             cells) );
    ]

(* ------------------------------------------------------------------ *)
(* Section timing and the --json result document                       *)
(* ------------------------------------------------------------------ *)

(* Every figure-sized unit of work runs under [timed]: wall clock and the
   peak heap size (GC top_heap_words, a high-water mark) go to stderr for
   the human eye and into the --json document for machines. *)
type section = { s_label : string; s_wall : float; s_peak_words : int }

let sections : section list ref = ref []

let timed label f =
  let s = Unix.gettimeofday () in
  let v = f () in
  let wall = Unix.gettimeofday () -. s in
  let peak = (Gc.quick_stat ()).Gc.top_heap_words in
  sections := { s_label = label; s_wall = wall; s_peak_words = peak } :: !sections;
  Printf.eprintf "[bench] %-24s %6.1f s  peak %7dk words\n%!" label wall
    (peak / 1000);
  v

let json_of_run (r : run) =
  let cell c =
    Json.Obj
      [
        ("h_pages", Json.int c.h_pages);
        ("i_pages", Json.int c.i_pages);
        ( "costs",
          Json.Obj
            (List.map
               (fun (qid, cost) -> (Paper_queries.name qid, Json.int cost))
               c.costs) );
      ]
  in
  (* Static databases are measured once; don't repeat the UC-0 cell. *)
  let cells =
    if r.kind = Workload.Static then [ r.cells.(0) ]
    else Array.to_list r.cells
  in
  Json.Obj
    [
      ("kind", Json.Str (Workload.kind_to_string r.kind));
      ("loading", Json.int r.loading);
      ("cells", Json.List (List.map cell cells));
    ]

let result_document ~total_s ~pruning ~parallel ~scale_sweep
    ~durability ~concurrency ~tjoin runs =
  Json.Obj
    [
      ( "meta",
        Json.Obj
          [
            ("benchmark", Json.Str "ahn-snodgrass-sigmod-1986");
            ("seed", Json.int seed);
            ("smoke", Json.Bool smoke);
            ("scale", Json.int scale);
            ("max_uc", Json.int max_uc);
            ("report_uc", Json.int report_uc);
            ("total_wall_s", Json.Num total_s);
          ] );
      ( "sections",
        Json.List
          (List.rev_map
             (fun s ->
               Json.Obj
                 [
                   ("label", Json.Str s.s_label);
                   ("wall_s", Json.Num s.s_wall);
                   ("peak_words", Json.int s.s_peak_words);
                 ])
             !sections) );
      ("grid", Json.List (List.map json_of_run runs));
      ("pruning", json_of_pruning pruning);
      ("parallel", json_of_parallel parallel);
      ("scale", json_of_scale_sweep scale_sweep);
      ("durability", json_of_durability durability);
      ("concurrency", json_of_concurrency concurrency);
      ("tjoin", json_of_tjoin tjoin);
      ("metrics", Obs_json.metrics ());
    ]

let write_json path doc =
  let oc = open_out path in
  output_string oc (Json.to_string_pretty doc);
  output_char oc '\n';
  close_out oc;
  Printf.eprintf "[bench] wrote %s\n%!" path

(* ------------------------------------------------------------------ *)

let run () =
  let t0 = Unix.gettimeofday () in
  print_endline
    "Reproducing Ahn & Snodgrass, \"Performance Evaluation of a Temporal\n\
     Database Management System\" (SIGMOD 1986).\n";
  let specs =
    [
      (Workload.Static, 100); (Workload.Static, 50);
      (Workload.Rollback, 100); (Workload.Rollback, 50);
      (Workload.Historical, 100); (Workload.Historical, 50);
      (Workload.Temporal, 100); (Workload.Temporal, 50);
    ]
  in
  let collected =
    List.map
      (fun (kind, loading) ->
        timed
          (Printf.sprintf "grid %s %d%%" (Workload.kind_to_string kind) loading)
          (fun () -> collect_run ~kind ~loading))
      specs
  in
  let runs = List.map fst collected in
  let temporal100, temporal100_w = List.nth collected 6 in
  let rollback50 = fst (List.nth collected 3) in
  figure5 runs;
  figure6 temporal100;
  figure7 runs;
  figure8 ~temporal100 ~rollback50;
  figure9 runs;
  model_validation runs;
  if smoke then print_endline "(smoke run: s5.4, ablations and timing skipped)\n"
  else timed "section 5.4" section54;
  let env = timed "figure 10 build" (fun () -> build_fig10 temporal100_w) in
  timed "figure 10" (fun () -> figure10 temporal100 env);
  let pruning = timed "pruning" pruning_section in
  pruning_guard pruning;
  let parallel =
    timed "parallel" (fun () -> parallel_section temporal100_w)
  in
  parallel_guard parallel;
  let scale_sweep = timed "scale sweep" scale_section in
  scale_guard scale_sweep;
  let durability = timed "durability" durability_section in
  durability_guard durability;
  let concurrency = timed "concurrency" concurrency_section in
  concurrency_guard concurrency;
  let tjoin = timed "tjoin" (fun () -> tjoin_section temporal100_w) in
  tjoin_guard tjoin;
  if not smoke then begin
    timed "ablations" (fun () ->
        ablation_buffers temporal100_w;
        ablation_crossover runs;
        ablation_overflow_placement ());
    try timed "timing" (fun () -> timing temporal100_w env)
    with e ->
      Printf.printf "(timing section skipped: %s)\n\n" (Printexc.to_string e)
  end;
  let total_s = Unix.gettimeofday () -. t0 in
  Option.iter
    (fun path ->
      write_json path
        (result_document ~total_s ~pruning ~parallel ~scale_sweep
           ~durability ~concurrency ~tjoin runs))
    json_path;
  Printf.printf "Total benchmark time: %.1f s\n" total_s

(* Storage-level failures — corruption, I/O — stop the benchmark with a
   class-specific exit code and a one-line message, never a backtrace. *)
let () =
  match compare_paths with
  | Some (old_path, new_path) ->
      exit
        (Compare.run ?tolerance:compare_tolerance ~old_path ~new_path ())
  | None -> (
      try run ()
      with Tdb_error.Error (cls, msg) ->
        Printf.eprintf "fatal %s\n" (Tdb_error.message cls msg);
        exit (Tdb_error.exit_code cls))
