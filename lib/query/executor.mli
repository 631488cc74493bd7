(** Execution of [retrieve] statements.

    The executor mirrors the prototype's use of Ingres query decomposition:
    one-variable restriction with selection push-down, one-variable
    detachment into temporary relations, and tuple substitution (paper,
    section 5.3).  Temporary relations are heap files with their own
    one-frame buffer pools; their reads count toward the query's input cost
    and their writes are the query's output cost, matching the paper's
    accounting. *)

type source = { var : string; rel : Tdb_storage.Relation_file.t }

type io_summary = { input_reads : int; output_writes : int }

type outcome = {
  schema : Tdb_relation.Schema.t;  (** shape of the emitted tuples *)
  count : int;  (** number of tuples emitted *)
  io : io_summary;
  plan : Plan.t;
  trace : Tdb_obs.Trace.node option;
      (** per-operator span tree when run under {!Tdb_obs.Trace.traced};
          its summed page reads equal [io.input_reads] *)
  parallel : string;
      (** the parallelism line(s) of {!explain} for the compiled tree
          that ran: the admission it took *)
  workers : int;  (** the width the tree compiled with *)
}

exception Execution_error of string

(** {1 Execution config} *)

type config = {
  workers : int;  (** the most domains one access fans out over; 1 = inline *)
  floor : int;  (** the fewest post-prune pages an access fans out with *)
  temporal_join : bool;  (** plan Allen joins as temporal merge joins *)
  pruning : bool;  (** hand storage fence windows; off reads every page *)
}
(** Every switch a statement's execution depends on.  {!compile} reads
    it once, and the compiled tree carries it; nothing else in the
    engine holds execution configuration.  The paper's Figures 5–10 are
    the point [{ workers = 1; temporal_join = false; pruning = false }]. *)

val default_config : config
(** Resolved once, when the program starts: [workers] from
    [TDB_WORKERS], else [Domain.recommended_domain_count ()]; [floor]
    from [TDB_PAR_MIN_PAGES], else 128; [temporal_join] off when
    [TDB_TJOIN] is [0], [false] or [off], else on; [pruning] on.
    Invalid values fall back to the default. *)

val run_retrieve :
  config:config ->
  now:Tdb_time.Chronon.t ->
  sources:source list ->
  Tdb_tquel.Ast.retrieve ->
  on_tuple:(Tdb_relation.Tuple.t -> unit) ->
  outcome
(** [sources] must cover every tuple variable the statement uses (extras are
    ignored).  Emitted tuples conform to [outcome.schema]: the target values
    followed by the implicit time attributes implied by the valid clause (or
    by default, the overlap of the participating valid periods).  Statements
    should have passed {!Tdb_tquel.Semck} first; runtime surprises raise
    {!Execution_error}. *)

val plan_retrieve : sources:source list -> Tdb_tquel.Ast.retrieve -> Plan.t
(** The decomposition plan {!run_retrieve} would execute under
    {!default_config}, without resolving anything else. *)

type compiled
(** A retrieve compiled into its operator tree: the plan, each source's
    restriction, access path and fence window, the parallel admission
    the driving access takes, and the batched operator chain (row
    source, joins, residual filter, emit, coalescing) with the span
    label of each operator. *)

val compile :
  config:config ->
  now:Tdb_time.Chronon.t ->
  sources:source list ->
  Tdb_tquel.Ast.retrieve ->
  compiled
(** Resolves everything the statement needs, once, under [config].  Does
    no page I/O: admission sizes partitions from in-memory fence
    summaries only. *)

val explain : compiled -> string
(** The CLI's [\explain] report: the plan, the batched operator chain
    (detachments first, then [source -> stage -> ...], the labels the
    trace spans carry), and the parallelism line(s) — the admission the
    driving access takes ([parallel: N workers, scan(v) in K partitions
    ...], [parallel: declined ...] or [parallel: off ...]) plus a note
    for each inner side whose fan-out is decided at run time. *)

val result_schema :
  sources:source list ->
  Tdb_tquel.Ast.retrieve ->
  Tdb_relation.Schema.t
(** The result shape without running the query. *)
