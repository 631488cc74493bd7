(** The bench trend/regression harness: diff two bench result documents
    (BENCH_N.json files).

    Hard gates — a changed cost-grid cell between comparable runs, rows
    diverging under pruning/parallelism/journalling, journal overhead
    past the sync-per-statement ceiling, a missed parallel speedup floor
    on a machine with >= 4 recommended domains, a metrics dump violating
    the shared schema — are {e failures}.  Relative drift in wall times,
    speedups or overheads beyond the noise [tolerance] (default 50%)
    only {e warns}: clocks differ across machines, page counts must not.

    Grid equality is only asserted when the two runs are comparable
    (same seed, update-count range and smoke flag); otherwise the report
    notes the skip. *)

type outcome = {
  failures : string list;  (** hard regressions; non-empty fails [run] *)
  warnings : string list;  (** drift beyond the tolerance *)
  report : string;  (** the full human-readable comparison ledger *)
}

val compare_docs :
  ?tolerance:float ->
  old_label:string ->
  new_label:string ->
  Tdb_obs.Json.t ->
  Tdb_obs.Json.t ->
  outcome
(** Diff two parsed bench documents, old then new. *)

val compare_files :
  ?tolerance:float ->
  old_path:string ->
  new_path:string ->
  unit ->
  (outcome, string) result
(** [compare_docs] on two files; [Error] for unreadable/unparsable
    input. *)

val run :
  ?tolerance:float -> old_path:string -> new_path:string -> unit -> int
(** CLI driver: print the report to stdout and return the exit code —
    0 clean, 1 with failures, 2 when a document cannot be read. *)
