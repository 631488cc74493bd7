(** The pruning experiment: Q01–Q12 measured fences-on vs fences-off over
    the same evolving database.

    Time fences are conservative, so the fenced run may only skip pages
    that cannot contribute — every cell therefore also checks that both
    runs returned bit-identical tuples.  The headline number is the
    growth-rate ratio on the rollback queries ({!as_of_queries}): their
    [as of] bound precedes the evolution epoch, so fences hold their cost
    near the UC-0 figure while the unfenced cost grows at the paper's
    section-5.3 rate. *)

type measurement = {
  cost_off : int;  (** input pages, fences ignored *)
  cost_on : int;  (** input pages, fences consulted *)
  skipped : int;  (** pages the fenced run skipped without reading *)
  identical : bool;  (** both runs returned the same tuples, in order *)
}

type qseries = { qid : Paper_queries.id; cells : measurement array }
(** One query's measurements; [cells.(uc)] is the cell at that update
    count, [0 .. max_uc]. *)

type t = {
  kind : Workload.kind;
  loading : int;
  max_uc : int;
  series : qseries list;
}

val as_of_queries : Paper_queries.id list
(** Q03, Q04 and Q11 — the queries whose [as of] bound falls before the
    evolution epoch, where pruning must bite. *)

val run :
  ?scale:int ->
  config:Tdb_query.Executor.config ->
  kind:Workload.kind ->
  loading:int ->
  seed:int ->
  max_uc:int ->
  unit ->
  t
(** Build a fresh workload and measure every applicable query twice at
    each update count — under [config] with [pruning] off, then on —
    evolving one uniform round between counts. *)

val growth : t -> qseries -> on:bool -> float
(** Measured page-I/O slope [(cost(max_uc) - cost(0)) / max_uc] for the
    fenced ([on:true]) or unfenced run. *)

val ratio : t -> qseries -> float option
(** Fenced slope over unfenced slope; [None] when the unfenced cost does
    not grow.  [< 1.0] means fences reduced the growth rate. *)

val all_identical : t -> bool
(** Every query at every update count returned the same tuples with
    fences on and off — the experiment's correctness gate. *)

val as_of_skipped : t -> int
(** Pages skipped at [max_uc] summed over {!as_of_queries}. *)

val worst_as_of_ratio : t -> float option
(** The largest defined {!ratio} over {!as_of_queries} — the weakest
    growth-rate reduction on the section pruning exists for. *)

val table : t -> string
(** A bordered report table: costs at UC 0 and [max_uc], pages skipped,
    slopes, ratio and the identity check, one row per query. *)
