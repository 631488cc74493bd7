(* The pruning experiment: the paper's query set measured twice over the
   same evolving database — fences consulted vs ignored — at every update
   count.  Fences must never change a result, only the pages read, so each
   cell also records whether the two runs returned bit-identical tuples.

   The interesting rows are the rollback queries (Q03/Q04/Q11): their
   [as of] bound falls before the evolution epoch, so every page written
   by an update round carries a transaction-start fence above the bound
   and is skipped without being read.  Their measured cost stays near the
   UC-0 figure while the unfenced cost grows with the section-5.3 rate —
   the growth-rate ratio quantifies the reduction. *)

module Database = Tdb_core.Database
module Engine = Tdb_core.Engine
module Executor = Tdb_query.Executor
module Time_fence = Tdb_storage.Time_fence

type measurement = {
  cost_off : int;  (* input pages, fences ignored *)
  cost_on : int;  (* input pages, fences consulted *)
  skipped : int;  (* pages the fenced run skipped without reading *)
  identical : bool;  (* both runs returned the same tuples in order *)
}

type qseries = { qid : Paper_queries.id; cells : measurement array }

type t = {
  kind : Workload.kind;
  loading : int;
  max_uc : int;
  series : qseries list;
}

(* Q03, Q04 and Q11 bound transaction time strictly before the evolution
   epoch: the as-of-heavy section the fences exist for. *)
let as_of_queries = Paper_queries.[ Q03; Q04; Q11 ]

let run_query ~config db src =
  Database.reset_io db;
  match Engine.execute ~config db src with
  | Ok [ Engine.Rows { io; tuples; _ } ] ->
      (io.Tdb_query.Executor.input_reads, tuples)
  | Ok _ ->
      Tdb_error.internal "pruning: expected a single retrieve: %s"
        src
  | Error e -> Tdb_error.internal "pruning query failed: %s" e

let measure ~(config : Executor.config) (w : Workload.t) src =
  let cost_off, rows_off =
    run_query ~config:{ config with pruning = false } w.Workload.db src
  in
  Time_fence.reset_pages_skipped ();
  let cost_on, rows_on =
    run_query ~config:{ config with pruning = true } w.Workload.db src
  in
  let skipped = Time_fence.pages_skipped () in
  { cost_off; cost_on; skipped; identical = rows_off = rows_on }

let run ?(scale = 1) ~config ~kind ~loading ~seed ~max_uc () =
  let w = Workload.build ~scale ~kind ~loading ~seed () in
  let texted =
    List.filter_map
      (fun qid ->
        Option.map (fun src -> (qid, src)) (Paper_queries.text qid kind))
      Paper_queries.all
  in
  let blank = { cost_off = 0; cost_on = 0; skipped = 0; identical = true } in
  let series =
    List.map (fun (qid, _) -> (qid, Array.make (max_uc + 1) blank)) texted
  in
  let measure_all uc =
    List.iter2
      (fun (_, src) (_, cells) -> cells.(uc) <- measure ~config w src)
      texted series
  in
  measure_all 0;
  for uc = 1 to max_uc do
    Evolve.uniform_round w ~round:uc;
    measure_all uc
  done;
  {
    kind;
    loading;
    max_uc;
    series = List.map (fun (qid, cells) -> { qid; cells }) series;
  }

(* Measured page-I/O slope over the whole evolution, per the section-5.3
   decomposition: (cost(n) - cost(0)) / n. *)
let growth t (s : qseries) ~on =
  let pick m = if on then m.cost_on else m.cost_off in
  float_of_int (pick s.cells.(t.max_uc) - pick s.cells.(0))
  /. float_of_int (max 1 t.max_uc)

(* Fenced slope over unfenced slope; [None] when the unfenced cost does
   not grow, so there is nothing to reduce. *)
let ratio t (s : qseries) =
  let off = growth t s ~on:false in
  if off <= 0. then None else Some (growth t s ~on:true /. off)

let all_identical t =
  List.for_all
    (fun s -> Array.for_all (fun m -> m.identical) s.cells)
    t.series

let is_as_of (s : qseries) = List.mem s.qid as_of_queries

let as_of_skipped t =
  List.fold_left
    (fun acc s -> if is_as_of s then acc + s.cells.(t.max_uc).skipped else acc)
    0 t.series

let worst_as_of_ratio t =
  List.fold_left
    (fun acc s ->
      if not (is_as_of s) then acc
      else
        match (ratio t s, acc) with
        | None, acc -> acc
        | Some r, None -> Some r
        | Some r, Some w -> Some (Float.max r w))
    None t.series

let table t =
  let n = t.max_uc in
  let header =
    [
      "Query"; "off/0"; Printf.sprintf "off/%d" n; Printf.sprintf "on/%d" n;
      Printf.sprintf "skip/%d" n; "g.off"; "g.on"; "ratio"; "same";
    ]
  in
  let rows =
    List.map
      (fun s ->
        [
          Paper_queries.name s.qid;
          string_of_int s.cells.(0).cost_off;
          string_of_int s.cells.(n).cost_off;
          string_of_int s.cells.(n).cost_on;
          string_of_int s.cells.(n).skipped;
          Report.centi (growth t s ~on:false);
          Report.centi (growth t s ~on:true);
          (match ratio t s with Some r -> Report.centi r | None -> "-");
          (if Array.for_all (fun m -> m.identical) s.cells then "yes"
           else "NO");
        ])
      t.series
  in
  Report.table ~header rows
