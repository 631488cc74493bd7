(** Lightweight span tracer with per-span page-I/O attribution and a
    ring-buffer event log.

    Spans form a tree.  Each domain keeps its own stack of open spans,
    whose head is the {e current} span; [note_read]/[note_write] (called
    from the storage layer's page-I/O counters) charge one page to the
    calling domain's current span, which gives exact per-operator I/O
    attribution without extra bookkeeping at the call sites.

    Tracing is a per-statement request: a statement asks for it by
    running under {!traced}, and every span opened on the same domain
    meanwhile is real.  Outside [traced], every constructor returns the
    shared [dummy] node and every operation is a single branch, so the
    engine's page counts are untouched.  Statements on different domains trace independently;
    a domain spawned for parallel scan partitions starts with no open
    span. *)

type node = {
  id : int;
  name : string;
  mutable attrs : (string * string) list;
  mutable reads : int;
  mutable writes : int;
  mutable skips : int;  (** pages skipped by temporal pruning *)
  mutable tuples : int;
  mutable batches : int;  (** pipeline batches produced by this stage *)
  mutable started : float;
  mutable elapsed : float;  (** seconds, accumulated over enter/exit *)
  mutable children : node list;  (** reverse order; see [children] *)
}

val traced : (unit -> 'a) -> 'a
(** [traced f] runs [f] with tracing on for the calling domain: spans
    [f] opens are real, and a span's {!result} is its subtree.  Inside
    another [traced] it just runs [f]. *)

val start : string -> node
(** Open a span as a child of the calling domain's current span and make
    it current.  Returns [dummy] outside {!traced}. *)

val finish : node -> unit
(** Close the span, popping it (and, defensively, anything opened above
    it that escaped via an exception) off the current stack. *)

val within : string -> (node -> 'a) -> 'a
(** [within name f] = [start name]; run [f]; [finish] (exception-safe). *)

val branch : node -> string -> node
(** A child span that is {e not} made current — use with [enter]/[exit]
    to re-activate one span many times (e.g. the inner side of a nested
    loop), accumulating I/O and elapsed time across activations. *)

val enter : node -> unit
val exit : node -> unit

val note_read : unit -> unit
val note_write : unit -> unit
(** Charge one page read/write to the current span; no-op with no span. *)

val note_skip : int -> unit
(** Charge [k] pruned (skipped-without-reading) pages to the current
    span; no-op with no span. *)

val add_tuples : node -> int -> unit

val note_batch : node -> unit
(** Count one pipeline batch produced by this span's stage. *)


val unattributed : (unit -> 'a) -> 'a
(** Runs [f] with the span stack hidden, so pages it reads, writes or
    skips are charged to no span.  For work whose pages the caller
    attributes itself afterwards: a parallel scan partition drained on
    the statement's own domain (see {!note_partition}). *)

val current : unit -> node
(** The calling domain's innermost active span, or [dummy] when there is
    none. *)

val note_partition :
  parent:node ->
  index:int ->
  domain:int ->
  busy_s:float ->
  rows:int ->
  reads:int ->
  writes:int ->
  skips:int ->
  unit
(** Record one parallel-scan partition as a child span of [parent],
    carrying the worker's folded page I/O and fence skips, row count,
    domain id and busy wall time.  Built on the statement's domain after
    the Pool join (a worker domain has no open span); keeps the subtree
    page sum exact. *)

val is_real : node -> bool
(** [false] exactly for the shared disabled-path [dummy] node. *)

val result : node -> node option
(** [Some n] if real, [None] for [dummy] — for storing in outcomes. *)

val children : node -> node list
(** In creation order. *)

val total_reads : node -> int
val total_writes : node -> int
val total_skips : node -> int
(** Subtree sums, root included. *)

val render : node -> string
(** An indented tree: per node its page I/O, tuple count and wall time,
    with subtree totals on the root line. *)

val to_json : node -> Json.t
(** The span tree in the shared obs JSON form: per node name, attrs,
    reads/writes/skips, tuples, batches, elapsed seconds, children. *)

(** {1 Event log} *)

type event = {
  seq : int;
  at : float;
  ev_name : string;
  ev_attrs : (string * string) list;
}

val event : ?attrs:(string * string) list -> string -> unit
(** Append to the ring buffer (capacity {!event_capacity}).  Gated on
    [Metric.enabled], not on span tracing. *)

val event_capacity : int
val events : unit -> event list
(** Oldest first; at most [event_capacity]. *)

val clear_events : unit -> unit
