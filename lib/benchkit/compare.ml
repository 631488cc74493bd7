(* The bench trend/regression harness: diff two bench result documents.

   The committed BENCH_N.json snapshots are the repo's reproduction of
   the paper's tables; this module is the check that a revision did not
   silently move them.  Three classes of signal come out of a diff:

   - {b failures} — hard gates: a cost-grid cell changed between two
     comparable runs (same update counts and seed), a query's rows
     diverged under pruning/parallelism/journalling, the journal costs
     more than naive sync-per-statement durability, or the parallel
     speedup floor is missed on a machine with cores to spend.  These
     are exactly the invariants CI used to re-assert with ad-hoc inline
     scripts; a failure makes [run] exit non-zero.
   - {b warnings} — drift beyond the noise tolerance: a section's wall
     time, a speedup or the journal overhead moved by more than
     [tolerance] (relative).  Wall clocks differ across machines,
     so drift never fails the comparison on its own.
   - {b info} — the full ledger, printed so the uploaded report shows
     what was compared and what was skipped (e.g. the grid when one run
     is a smoke run and the other is not). *)

module Json = Tdb_obs.Json

type outcome = { failures : string list; warnings : string list; report : string }

(* --- JSON accessors (missing fields surface as comparison failures,
   never exceptions: a malformed document is itself a regression) --- *)

(* All accessors take and return options, so a chain over a malformed
   document collapses to [None] instead of raising. *)
let field name = function
  | Some (Json.Obj fs) -> List.assoc_opt name fs
  | _ -> None

let num = function Some (Json.Num f) -> Some f | _ -> None
let str = function Some (Json.Str s) -> Some s | _ -> None
let boolean = function Some (Json.Bool b) -> Some b | _ -> None
let items = function Some (Json.List l) -> Some l | _ -> None
let fnum j name = num (field name j)
let fint j name = Option.map int_of_float (fnum j name)
let fstr j name = str (field name j)
let fbool j name = boolean (field name j)
let flist j name = items (field name j)

type ctx = {
  buf : Buffer.t;
  mutable failures : string list;
  mutable warnings : string list;
  tolerance : float;
}

let info ctx fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string ctx.buf s;
      Buffer.add_char ctx.buf '\n')
    fmt

let fail ctx fmt =
  Printf.ksprintf
    (fun s ->
      ctx.failures <- s :: ctx.failures;
      info ctx "FAIL %s" s)
    fmt

let warn ctx fmt =
  Printf.ksprintf
    (fun s ->
      ctx.warnings <- s :: ctx.warnings;
      info ctx "warn %s" s)
    fmt

let pct_change ~old_v ~new_v =
  if old_v = 0.0 then 0.0 else 100.0 *. ((new_v /. old_v) -. 1.0)

(* --- the cost grid: cell-for-cell equality --- *)

(* Two full runs with the same seed, update-count range and generator
   scale must agree on every page count: the instrumentation layers
   (tracing, logging, journalling) are required to be invisible in the
   paper's numbers.  Documents that predate the scale axis carry no
   meta.scale key and compare as scale 1. *)
let meta_scale d =
  Option.value
    (Option.bind (field "meta" d) (fun m -> fint (Some m) "scale"))
    ~default:1

let grid_comparable ctx ~old_doc ~new_doc =
  let meta d =
    (fint d "max_uc", fint d "seed", fbool d "smoke",
     Option.value (fint d "scale") ~default:1)
  in
  match (field "meta" old_doc, field "meta" new_doc) with
  | Some om, Some nm when meta (Some om) = meta (Some nm) -> true
  | Some om, Some nm ->
      info ctx
        "grid: equality skipped (incomparable runs: old max_uc=%s smoke=%s \
         scale=%d, new max_uc=%s smoke=%s scale=%d)"
        (match fint (Some om) "max_uc" with Some n -> string_of_int n | None -> "?")
        (match fbool (Some om) "smoke" with Some b -> string_of_bool b | None -> "?")
        (meta_scale old_doc)
        (match fint (Some nm) "max_uc" with Some n -> string_of_int n | None -> "?")
        (match fbool (Some nm) "smoke" with Some b -> string_of_bool b | None -> "?")
        (meta_scale new_doc);
      false
  | _ ->
      fail ctx "meta section missing";
      false

let run_key run = (fstr run "kind", fint run "loading")

let compare_grid ctx ~old_doc ~new_doc =
  match (flist old_doc "grid", flist new_doc "grid") with
  | None, _ | _, None -> fail ctx "grid section missing"
  | Some old_runs, Some new_runs ->
      if grid_comparable ctx ~old_doc ~new_doc then begin
        let identical = ref 0 in
        List.iter
          (fun nrun ->
            let nrun = Some nrun in
            let kind =
              Option.value (fstr nrun "kind") ~default:"?"
            and loading = Option.value (fint nrun "loading") ~default:(-1) in
            match
              List.find_opt (fun o -> run_key (Some o) = run_key nrun) old_runs
            with
            | None -> warn ctx "grid: %s %d%% has no old counterpart" kind loading
            | Some orun -> (
                match (flist (Some orun) "cells", flist nrun "cells") with
                | Some oc, Some nc when List.length oc = List.length nc ->
                    let diverged =
                      List.find_index
                        (fun (o, n) -> not (Json.equal o n))
                        (List.combine oc nc)
                    in
                    (match diverged with
                    | None -> incr identical
                    | Some i ->
                        fail ctx "grid: %s %d%% diverges at cell %d (uc %d)"
                          kind loading i i)
                | Some oc, Some nc ->
                    fail ctx "grid: %s %d%% cell count changed (%d -> %d)" kind
                      loading (List.length oc) (List.length nc)
                | _ -> fail ctx "grid: %s %d%% cells missing" kind loading))
          new_runs;
        List.iter
          (fun orun ->
            if
              not
                (List.exists
                   (fun n -> run_key (Some n) = run_key (Some orun))
                   new_runs)
            then
              fail ctx "grid: %s %d%% dropped from the new run"
                (Option.value (fstr (Some orun) "kind") ~default:"?")
                (Option.value (fint (Some orun) "loading") ~default:(-1)))
          old_runs;
        info ctx "grid: %d/%d database configurations identical cell-for-cell"
          !identical (List.length new_runs)
      end

(* --- per-section wall-time deltas --- *)

(* Sub-50ms sections are dominated by scheduling noise; drift warnings
   only fire above that floor. *)
let wall_noise_floor_s = 0.05

let compare_sections ctx ~old_doc ~new_doc =
  match (flist old_doc "sections", flist new_doc "sections") with
  | None, _ | _, None -> info ctx "sections: missing; wall-time deltas skipped"
  | Some olds, Some news ->
      List.iter
        (fun n ->
          let n = Some n in
          match fstr n "label" with
          | None -> ()
          | Some label -> (
              match
                List.find_opt (fun o -> fstr (Some o) "label" = Some label) olds
              with
              | None -> info ctx "section %-20s (new; no old timing)" label
              | Some o -> (
                  match (fnum (Some o) "wall_s", fnum n "wall_s") with
                  | Some old_v, Some new_v ->
                      let delta = pct_change ~old_v ~new_v in
                      info ctx "section %-20s %8.3fs -> %8.3fs (%+6.1f%%)" label
                        old_v new_v delta;
                      if
                        new_v > wall_noise_floor_s
                        && new_v > old_v *. (1.0 +. ctx.tolerance)
                      then
                        warn ctx
                          "section %s slowed %.1f%% (tolerance %.0f%%)" label
                          delta (100.0 *. ctx.tolerance)
                  | _ -> ())))
        news

(* --- pruning: internal gates on the new run, ratio drift vs the old --- *)

let compare_pruning ctx ~old_doc ~new_doc =
  match (field "pruning" old_doc, field "pruning" new_doc) with
  | _, None -> fail ctx "pruning section missing from the new run"
  | old_p, Some np -> (
      let np = Some np in
      (match fbool np "all_identical" with
      | Some true -> ()
      | _ -> fail ctx "pruning: fences changed a query result");
      (match field "as_of" np with
      | None -> fail ctx "pruning: as_of summary missing"
      | Some asof ->
          let asof = Some asof in
          (match fint asof "skipped" with
          | Some n when n > 0 ->
              info ctx "pruning: %d pages skipped on rollback queries" n
          | _ -> fail ctx "pruning: rollback queries skipped no pages");
          (match fnum asof "worst_ratio" with
          | Some r when r < 1.0 ->
              info ctx "pruning: worst growth-rate ratio %.3f" r
          | Some r -> fail ctx "pruning: growth-rate ratio %.3f not reduced" r
          | None -> fail ctx "pruning: worst_ratio missing"));
      match
        ( Option.bind old_p (fun o -> field "as_of" (Some o)),
          field "as_of" np )
      with
      | Some oa, Some na -> (
          match
            (fnum (Some oa) "worst_ratio", fnum (Some na) "worst_ratio")
          with
          | Some old_v, Some new_v
            when new_v > (old_v *. (1.0 +. ctx.tolerance)) +. 0.01 ->
              warn ctx "pruning: growth-rate ratio drifted %.3f -> %.3f" old_v
                new_v
          | _ -> ())
      | _ -> ())

(* --- speedup-vs-workers trend tables --- *)

let speedup_at q ~workers =
  Option.bind (flist q "cells") (fun cells ->
      List.find_map
        (fun c ->
          let c = Some c in
          if fint c "workers" = Some workers then fnum c "speedup" else None)
        cells)

(* One report line per query configuration: the whole speedup curve of
   the new run next to the old one, so a parallel-efficiency regression
   is visible even when every hard gate still passes.  [tag] names the
   per-query axis key ("uc" for the parallel section, "scale" for the
   scale sweep); an old document without the section shows "-". *)
let trend_table ctx ~section ~tag old_sec new_sec =
  match flist new_sec "queries" with
  | None | Some [] -> ()
  | Some qs ->
      let workers =
        Option.value
          (Option.map
             (List.filter_map (function
               | Json.Num f -> Some (int_of_float f)
               | _ -> None))
             (flist new_sec "workers"))
          ~default:[]
      in
      info ctx "%s trend (speedup vs workers, old -> new):" section;
      List.iter
        (fun q ->
          let q = Some q in
          let name = Option.value (fstr q "query") ~default:"?" in
          let key = Option.value (fint q tag) ~default:(-1) in
          let oq =
            Option.bind (flist old_sec "queries") (fun oqs ->
                List.find_opt
                  (fun oq ->
                    fstr (Some oq) "query" = Some name
                    && fint (Some oq) tag = Some key)
                  oqs)
          in
          let cell w =
            let show = function
              | Some v -> Printf.sprintf "%.2fx" v
              | None -> "-"
            in
            Printf.sprintf "w%d %5s -> %5s" w
              (show (Option.bind oq (fun o -> speedup_at (Some o) ~workers:w)))
              (show (speedup_at q ~workers:w))
          in
          info ctx "  %-4s %s %-4d %s" name tag key
            (String.concat "   " (List.map cell workers)))
        qs

(* --- parallel: row identity always; the speedup floor when the
   machine has cores; speedup drift as a warning --- *)

let speedup_floor = 1.5

let parallel_best_speedup q ~workers =
  Option.bind (flist q "cells") (fun cells ->
      List.fold_left
        (fun acc c ->
          let c = Some c in
          if fint c "workers" = Some workers then
            match (fnum c "speedup", acc) with
            | Some s, Some b -> Some (Float.max s b)
            | Some s, None -> Some s
            | None, _ -> acc
          else acc)
        None cells)

let compare_parallel ctx ~old_doc ~new_doc =
  match (field "parallel" old_doc, field "parallel" new_doc) with
  | _, None -> fail ctx "parallel section missing from the new run"
  | old_p, Some np -> (
      let np = Some np in
      match flist np "queries" with
      | None | Some [] -> fail ctx "parallel: section is empty"
      | Some qs ->
          List.iter
            (fun q ->
              let q = Some q in
              let name = Option.value (fstr q "query") ~default:"?" in
              let uc = Option.value (fint q "uc") ~default:(-1) in
              (match fbool q "identical" with
              | Some true -> ()
              | _ -> fail ctx "parallel: %s uc%d rows diverge" name uc);
              Option.iter
                (List.iter (fun c ->
                     let c = Some c in
                     let w = Option.value (fint c "workers") ~default:(-1) in
                     (match fbool c "identical" with
                     | Some true -> ()
                     | _ ->
                         fail ctx "parallel: %s uc%d w%d rows diverge" name uc w);
                     match fnum c "wall_s" with
                     | Some s when s > 0.0 -> ()
                     | _ -> fail ctx "parallel: %s uc%d w%d has no wall time" name uc w))
                (flist q "cells"))
            qs;
          let cores = Option.value (fint np "recommended_domains") ~default:0 in
          if cores >= 4 then begin
            let top_uc =
              Option.value
                (Option.bind (field "meta" new_doc) (fun m -> fint (Some m) "max_uc"))
                ~default:(-1)
            in
            List.iter
              (fun name ->
                match
                  List.find_opt
                    (fun q ->
                      fstr (Some q) "query" = Some name
                      && fint (Some q) "uc" = Some top_uc)
                    qs
                with
                | None -> fail ctx "parallel: %s uc%d missing" name top_uc
                | Some q -> (
                    match parallel_best_speedup (Some q) ~workers:4 with
                    | Some best when best >= speedup_floor ->
                        info ctx "parallel: %s uc%d %.2fx at 4 workers" name
                          top_uc best
                    | Some best ->
                        fail ctx
                          "parallel: %s uc%d %.2fx < %.1fx at 4 workers" name
                          top_uc best speedup_floor
                    | None ->
                        fail ctx "parallel: %s uc%d has no 4-worker cell" name
                          top_uc))
              [ "Q03"; "Q11" ]
          end
          else
            info ctx
              "parallel: %d recommended domain(s); speedup floor skipped" cores;
          (* speedup drift against the old run, same query/uc, 4 workers *)
          Option.iter
            (fun op ->
              Option.iter
                (List.iter (fun oq ->
                     let oq = Some oq in
                     let name = Option.value (fstr oq "query") ~default:"?" in
                     let uc = fint oq "uc" in
                     match
                       List.find_opt
                         (fun q ->
                           fstr (Some q) "query" = Some name
                           && fint (Some q) "uc" = uc)
                         qs
                     with
                     | None -> ()
                     | Some q -> (
                         match
                           ( parallel_best_speedup oq ~workers:4,
                             parallel_best_speedup (Some q) ~workers:4 )
                         with
                         | Some old_v, Some new_v
                           when old_v > 1.0
                                && new_v < old_v /. (1.0 +. ctx.tolerance) ->
                             warn ctx
                               "parallel: %s uc%d 4-worker speedup %.2fx -> %.2fx"
                               name
                               (Option.value uc ~default:(-1))
                               old_v new_v
                         | _ -> ())))
                (flist (Some op) "queries"))
            old_p;
          trend_table ctx ~section:"parallel" ~tag:"uc" old_p np)

(* --- scale sweep: row identity always; where the machine has the
   cores, parallelism must pay at scale (>= 2x on Q03/Q11 with 4
   workers at scale >= 10) and must not hurt at paper scale (no query
   below 0.9x at scale 1 — the admission threshold is supposed to
   decline fan-outs too small to amortize) --- *)

let scale10_speedup_floor = 2.0
let scale1_speedup_floor = 0.9

let compare_scale ctx ~old_doc ~new_doc =
  match (field "scale" old_doc, field "scale" new_doc) with
  | _, None -> fail ctx "scale section missing from the new run"
  | old_s, Some ns -> (
      let ns = Some ns in
      match flist ns "queries" with
      | None | Some [] -> fail ctx "scale: section is empty"
      | Some qs ->
          List.iter
            (fun q ->
              let q = Some q in
              let name = Option.value (fstr q "query") ~default:"?" in
              let sc = Option.value (fint q "scale") ~default:(-1) in
              (match fbool q "identical" with
              | Some true -> ()
              | _ -> fail ctx "scale: %s at scale %d rows diverge" name sc);
              Option.iter
                (List.iter (fun c ->
                     let c = Some c in
                     let w = Option.value (fint c "workers") ~default:(-1) in
                     (match fbool c "identical" with
                     | Some true -> ()
                     | _ ->
                         fail ctx "scale: %s scale %d w%d rows diverge" name sc
                           w);
                     match fnum c "wall_s" with
                     | Some s when s > 0.0 -> ()
                     | _ ->
                         fail ctx "scale: %s scale %d w%d has no wall time" name
                           sc w))
                (flist q "cells"))
            qs;
          let cores = Option.value (fint ns "recommended_domains") ~default:0 in
          if cores >= 4 then
            List.iter
              (fun q ->
                let q = Some q in
                let name = Option.value (fstr q "query") ~default:"?" in
                let sc = Option.value (fint q "scale") ~default:1 in
                if sc >= 10 && List.mem name [ "Q03"; "Q11" ] then begin
                  match speedup_at q ~workers:4 with
                  | Some s when s >= scale10_speedup_floor ->
                      info ctx "scale: %s at scale %d %.2fx at 4 workers" name
                        sc s
                  | Some s ->
                      fail ctx "scale: %s at scale %d %.2fx < %.1fx at 4 workers"
                        name sc s scale10_speedup_floor
                  | None ->
                      fail ctx "scale: %s at scale %d has no 4-worker cell" name
                        sc
                end
                else if sc = 1 then
                  Option.iter
                    (List.iter (fun c ->
                         let c = Some c in
                         match (fint c "workers", fnum c "speedup") with
                         | Some w, Some s when s < scale1_speedup_floor ->
                             fail ctx
                               "scale: %s at scale 1 regresses to %.2fx with \
                                %d workers (floor %.1fx)"
                               name s w scale1_speedup_floor
                         | _ -> ()))
                    (flist q "cells"))
              qs
          else
            info ctx "scale: %d recommended domain(s); speedup gates skipped"
              cores;
          trend_table ctx ~section:"scale" ~tag:"scale" old_s ns)

(* --- durability: identity and the sync-per-statement ceiling --- *)

let compare_durability ctx ~old_doc ~new_doc =
  match (field "durability" old_doc, field "durability" new_doc) with
  | _, None -> fail ctx "durability section missing from the new run"
  | old_d, Some nd ->
      let nd = Some nd in
      (match fbool nd "identical" with
      | Some true -> ()
      | _ -> fail ctx "durability: journal changed stored tuples");
      (match (fnum nd "overhead_vs_sync_per_stmt", fnum nd "ceiling") with
      | Some o, Some c when o <= c ->
          info ctx "durability: journal %.3fx of naive sync (ceiling %.0fx)" o c
      | Some o, Some _ -> fail ctx "durability: journal %.2fx of naive sync" o
      | _ -> fail ctx "durability: overhead fields missing");
      (match flist nd "phases" with
      | Some ps when List.length ps >= 4 ->
          List.iter
            (fun p ->
              match fnum (Some p) "journal_s" with
              | Some s when s >= 0.0 -> ()
              | _ ->
                  fail ctx "durability: phase %s has no journal time"
                    (Option.value (fstr (Some p) "phase") ~default:"?"))
            ps
      | _ -> fail ctx "durability: phases missing");
      (match
         ( Option.bind old_d (fun o -> fnum (Some o) "overhead_vs_sync_per_stmt"),
           fnum nd "overhead_vs_sync_per_stmt" )
       with
      | Some old_v, Some new_v
        when old_v > 0.0 && new_v > old_v *. (1.0 +. ctx.tolerance) ->
          warn ctx "durability: overhead drifted %.3fx -> %.3fx" old_v new_v
      | _ -> ())

(* --- concurrency: snapshot readers must scale past the big lock --- *)

(* Hard floor on the session layer's reason to exist: with 4 reader
   domains and 1 writer, snapshot readers must push at least twice the
   statements a single reader does — on machines with the cores to show
   it.  Old documents predating the section are tolerated (the section
   is new); a new run without it is a regression. *)
let concurrency_speedup_floor = 2.0

let concurrency_reader_rate sec ~readers ~mode =
  Option.bind (flist sec "cells") (fun cells ->
      List.find_map
        (fun c ->
          let c = Some c in
          if fint c "readers" = Some readers && fstr c "mode" = Some mode then
            fnum c "reader_stmts_per_s"
          else None)
        cells)

let compare_concurrency ctx ~old_doc ~new_doc =
  match (field "concurrency" old_doc, field "concurrency" new_doc) with
  | _, None -> fail ctx "concurrency section missing from the new run"
  | old_c, Some nc -> (
      let nc = Some nc in
      (match flist nc "cells" with
      | None | Some [] -> fail ctx "concurrency: section is empty"
      | Some cells ->
          List.iter
            (fun c ->
              let c = Some c in
              let readers = Option.value (fint c "readers") ~default:(-1) in
              let mode = Option.value (fstr c "mode") ~default:"?" in
              (match fint c "reader_stmts" with
              | Some n when n > 0 -> ()
              | _ ->
                  fail ctx "concurrency: %dr/%s completed no reader statements"
                    readers mode);
              match (fnum c "p50_ms", fnum c "p99_ms") with
              | Some p50, Some p99 when p50 >= 0.0 && p99 >= p50 -> ()
              | _ ->
                  fail ctx "concurrency: %dr/%s has bad latency percentiles"
                    readers mode)
            cells);
      let cores = Option.value (fint nc "recommended_domains") ~default:0 in
      (if cores >= 4 then
         match fnum nc "speedup_4r_vs_1r" with
         | Some s when s >= concurrency_speedup_floor ->
             info ctx "concurrency: 4 snapshot readers run %.2fx of 1" s
         | Some s ->
             fail ctx
               "concurrency: 4 snapshot readers run %.2fx < %.1fx of 1" s
               concurrency_speedup_floor
         | None -> fail ctx "concurrency: speedup_4r_vs_1r missing"
       else
         info ctx
           "concurrency: %d recommended domain(s); speedup floor skipped" cores);
      match old_c with
      | None -> info ctx "concurrency: no old section; trend skipped"
      | Some oc -> (
          match
            ( concurrency_reader_rate (Some oc) ~readers:4 ~mode:"snapshot",
              concurrency_reader_rate nc ~readers:4 ~mode:"snapshot" )
          with
          | Some old_v, Some new_v ->
              info ctx "concurrency: 4r snapshot %.0f/s -> %.0f/s (%+.1f%%)"
                old_v new_v (pct_change ~old_v ~new_v);
              if new_v < old_v /. (1.0 +. ctx.tolerance) then
                warn ctx "concurrency: 4r snapshot throughput dropped %.1f%%"
                  (-.pct_change ~old_v ~new_v)
          | _ -> ()))

(* --- temporal join: the merge join must return the nested loop's rows
   verbatim and, where the nested wall is big enough to mean anything,
   beat it --- *)

(* The section's own noise floor keeps the gate off the sub-millisecond
   cells (the selective paper queries at uc 0), where the ratio is
   scheduling noise; old documents predating the section are tolerated,
   a new run without it is a regression. *)
let tjoin_speedup_floor = 2.0
let tjoin_gated_queries = [ "Q09c"; "Q11" ]

let tjoin_cell_key q = (fstr q "query", fint q "uc", fint q "scale")

let compare_tjoin ctx ~old_doc ~new_doc =
  match (field "tjoin" old_doc, field "tjoin" new_doc) with
  | _, None -> fail ctx "tjoin section missing from the new run"
  | old_t, Some nt -> (
      let nt = Some nt in
      let floor_s = Option.value (fnum nt "noise_floor_s") ~default:0.05 in
      match flist nt "queries" with
      | None | Some [] -> fail ctx "tjoin: section is empty"
      | Some qs ->
          let cores = Option.value (fint nt "recommended_domains") ~default:0 in
          List.iter
            (fun q ->
              let q = Some q in
              let name = Option.value (fstr q "query") ~default:"?" in
              let uc = Option.value (fint q "uc") ~default:(-1) in
              let sc = Option.value (fint q "scale") ~default:(-1) in
              (match fbool q "identical" with
              | Some true -> ()
              | _ ->
                  fail ctx "tjoin: %s uc%d scale%d rows diverge from the \
                            nested loop"
                    name uc sc);
              match (fnum q "off_wall_s", fnum q "on_wall_s") with
              | Some off, Some on when off > 0.0 && on > 0.0 ->
                  info ctx "tjoin %-4s uc%-2d scale%-3d %9.2fms -> %8.2fms (%.2fx)"
                    name uc sc (1e3 *. off) (1e3 *. on) (off /. on);
                  if
                    cores >= 4
                    && List.mem name tjoin_gated_queries
                    && off >= floor_s
                  then
                    if off /. on >= tjoin_speedup_floor then
                      info ctx "tjoin: %s uc%d scale%d %.2fx at the gate" name
                        uc sc (off /. on)
                    else
                      fail ctx "tjoin: %s uc%d scale%d %.2fx < %.1fx over the \
                                nested loop"
                        name uc sc (off /. on) tjoin_speedup_floor
              | _ -> fail ctx "tjoin: %s uc%d scale%d has bad wall fields" name uc sc)
            qs;
          if cores < 4 then
            info ctx "tjoin: %d recommended domain(s); speedup floor skipped"
              cores;
          match Option.bind old_t (fun o -> flist (Some o) "queries") with
          | None -> info ctx "tjoin: no old section; trend skipped"
          | Some oqs ->
              List.iter
                (fun q ->
                  let q = Some q in
                  match
                    List.find_opt
                      (fun oq -> tjoin_cell_key (Some oq) = tjoin_cell_key q)
                      oqs
                  with
                  | None -> ()
                  | Some oq -> (
                      match
                        (fnum (Some oq) "speedup", fnum q "speedup")
                      with
                      | Some old_v, Some new_v
                        when old_v > 1.0
                             && new_v < old_v /. (1.0 +. ctx.tolerance) ->
                          warn ctx "tjoin: %s uc%d scale%d speedup %.2fx -> %.2fx"
                            (Option.value (fstr q "query") ~default:"?")
                            (Option.value (fint q "uc") ~default:(-1))
                            (Option.value (fint q "scale") ~default:(-1))
                            old_v new_v
                      | _ -> ()))
                qs)

let compare_metrics ctx ~new_doc =
  match field "metrics" new_doc with
  | None -> fail ctx "metrics section missing from the new run"
  | Some m -> (
      match Obs_json.validate m with
      | Ok () -> info ctx "metrics: dump matches the shared schema"
      | Error e -> fail ctx "metrics: %s" e)

(* --- entry points --- *)

let compare_docs ?(tolerance = 0.5) ~old_label ~new_label old_doc new_doc =
  let old_doc = Some old_doc and new_doc = Some new_doc in
  let ctx =
    { buf = Buffer.create 1024; failures = []; warnings = []; tolerance }
  in
  info ctx "bench compare: %s (old) vs %s (new), tolerance %.0f%%" old_label
    new_label (100.0 *. tolerance);
  compare_grid ctx ~old_doc ~new_doc;
  compare_sections ctx ~old_doc ~new_doc;
  compare_pruning ctx ~old_doc ~new_doc;
  compare_parallel ctx ~old_doc ~new_doc;
  compare_scale ctx ~old_doc ~new_doc;
  compare_durability ctx ~old_doc ~new_doc;
  compare_concurrency ctx ~old_doc ~new_doc;
  compare_tjoin ctx ~old_doc ~new_doc;
  compare_metrics ctx ~new_doc;
  let failures = List.rev ctx.failures and warnings = List.rev ctx.warnings in
  info ctx "result: %s (%d failure(s), %d warning(s))"
    (if failures = [] then "OK" else "REGRESSION")
    (List.length failures) (List.length warnings);
  { failures; warnings; report = Buffer.contents ctx.buf }

let load path =
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "no such bench document: %s" path)
  else begin
    let ic = open_in_bin path in
    let src =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Json.parse src with
    | Ok doc -> Ok doc
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
  end

let compare_files ?tolerance ~old_path ~new_path () =
  match (load old_path, load new_path) with
  | Error e, _ | _, Error e -> Error e
  | Ok old_doc, Ok new_doc ->
      Ok
        (compare_docs ?tolerance ~old_label:(Filename.basename old_path)
           ~new_label:(Filename.basename new_path) old_doc new_doc)

let run ?tolerance ~old_path ~new_path () =
  match compare_files ?tolerance ~old_path ~new_path () with
  | Error e ->
      prerr_endline ("bench compare: " ^ e);
      2
  | Ok outcome ->
      print_string outcome.report;
      if outcome.failures = [] then 0 else 1
