module Database = Tdb_core.Database
module Engine = Tdb_core.Engine
module Relation_file = Tdb_storage.Relation_file
module Chronon = Tdb_time.Chronon
module Clock = Tdb_time.Clock

let run ?config db src =
  match Engine.execute ?config db src with
  | Ok outcomes -> outcomes
  | Error e ->
      Tdb_error.internal "benchmark statement failed: %s\n%s" e src

let uniform_round (w : Workload.t) ~round =
  let at = Chronon.add_seconds Workload.evolution_base (round * 86400) in
  Clock.set (Database.clock w.Workload.db) at;
  ignore (run w.Workload.db "replace h (seq = h.seq + 1)");
  ignore (run w.Workload.db "replace i (seq = i.seq + 1)")

let non_uniform_round (w : Workload.t) ~round ~key =
  let at = Chronon.add_seconds Workload.evolution_base (round * 86400) in
  Clock.set (Database.clock w.Workload.db) at;
  let stmt = Printf.sprintf "replace h (seq = h.seq + 1) where h.id = %d" key in
  for _ = 1 to 1024 do
    ignore (run w.Workload.db stmt)
  done

let hashed_access_cost (w : Workload.t) ~key =
  let rel = Workload.h_rel w in
  Tdb_storage.Buffer_pool.invalidate (Relation_file.pool rel);
  Tdb_storage.Io_stats.reset (Relation_file.stats rel);
  Relation_file.lookup rel (Tdb_relation.Value.Int key) (fun _ _ -> ());
  Tdb_storage.Io_stats.reads (Relation_file.stats rel)

let measure_query_result ?config (w : Workload.t) src =
  Database.reset_io w.Workload.db;
  match run ?config w.Workload.db src with
  | [ Engine.Rows { io; tuples; _ } ] ->
      (io.Tdb_query.Executor.input_reads, List.length tuples)
  | _ -> Tdb_error.internal "expected a single retrieve: %s" src

let measure_query ?config w src = fst (measure_query_result ?config w src)

let sizes (w : Workload.t) =
  ( Relation_file.npages (Workload.h_rel w),
    Relation_file.npages (Workload.i_rel w) )
