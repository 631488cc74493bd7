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
      (** per-operator span tree when tracing is enabled; its summed page
          reads equal [io.input_reads] *)
  parallel : string;
      (** the parallelism line(s) of {!explain} for the compiled tree
          that ran: the admission it took *)
}

exception Execution_error of string

val run_retrieve :
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
(** The decomposition plan {!run_retrieve} would execute, without
    resolving anything else. *)

type compiled
(** A retrieve compiled into its operator tree: the plan, each source's
    restriction, access path and fence window, the parallel admission
    the driving access takes, and the batched operator chain (row
    source, joins, residual filter, emit, coalescing) with the span
    label of each operator. *)

val compile :
  now:Tdb_time.Chronon.t ->
  sources:source list ->
  Tdb_tquel.Ast.retrieve ->
  compiled
(** Resolves everything the statement needs, once.  Does no page I/O:
    admission sizes partitions from in-memory fence summaries only. *)

val explain : compiled -> string
(** The CLI's [\explain] report: the plan, the batched operator chain
    (detachments first, then [source -> stage -> ...], the labels the
    trace spans carry), and the parallelism line(s) — the admission the
    driving access takes ([parallel: N workers, scan(v) in K partitions
    ...], [parallel: declined ...] or [parallel: off ...]) plus a note
    for each inner side whose fan-out is decided at run time. *)

val with_temporal_join : bool -> (unit -> 'a) -> 'a
(** Runs the thunk with temporal-join planning pinned to the given value,
    restoring the previous setting afterwards.  [false] forces the
    classic nested-loop/detachment plans even when a [when] conjunct
    classifies as an Allen overlap/precede join.  Outside any such scope
    the [TDB_TJOIN] environment variable decides ([0], [false] or [off]
    disable it), else it is enabled. *)

val with_parallel_min_pages : int -> (unit -> 'a) -> 'a
(** Runs the thunk with the parallelism admission floor — the minimum
    post-prune pages an access must cover to fan out — pinned to the
    given value, restoring the previous setting afterwards.  [0] admits
    every access that splits into two or more partitions (the tests use
    it to exercise fan-out on tiny relations).  Outside any such scope
    the [TDB_PAR_MIN_PAGES] environment variable decides, else 128. *)

val result_schema :
  sources:source list ->
  Tdb_tquel.Ast.retrieve ->
  Tdb_relation.Schema.t
(** The result shape without running the query. *)
