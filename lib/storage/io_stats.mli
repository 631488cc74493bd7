(** Page I/O accounting.

    The paper's sole metric is "the number of disk accesses per query at a
    granularity of a page", counting only accesses to user relations.  Every
    buffer pool owns one of these counter records; the engine aggregates
    them per query.  A read is counted when a page must be fetched from the
    disk (a buffer miss); a write when a dirty page is flushed — split by
    cause into eviction writes and explicit sync writes.

    Since PR 2 this is a thin shim over [Tdb_obs.Metric]: the per-pool
    counters are raw obs counters (always exact, never gated), and every
    count also feeds the registered global [tdb_io_*] metrics and the
    current trace span, which is how per-operator I/O attribution works. *)

type t

val create : unit -> t
val reads : t -> int

val writes : t -> int
(** Total writes = [eviction_writes] + [sync_writes]. *)

val eviction_writes : t -> int
val sync_writes : t -> int
val total : t -> int
val skips : t -> int
(** Pages a fence-bounded walk through this pool skipped without reading
    them.  A parallel partition's skips are counted here, next to its
    reads, so they can be attributed to that partition. *)

val count_read : t -> unit
val count_eviction_write : t -> unit
val count_sync_write : t -> unit

val count_skip : t -> unit
(** Count one skipped page against this pool only: the global prune
    counter and the trace span are {!Time_fence.note_skipped}'s job. *)

val reset : t -> unit

val absorb : ?trace:bool -> into:t -> t -> unit
(** [absorb ~into part] folds a parallel-scan partition's private stats
    into the owning pool's counters and charges the pages to the current
    trace span.  The registered global [tdb_io_*] counters are {e not}
    touched: the partition already fed them at count time.  Pass
    [~trace:false] when the caller attributes the pages itself (e.g. to
    per-partition child spans) to avoid double-counting. *)

type snapshot = { reads : int; writes : int }

val snapshot : t -> snapshot
val diff : before:snapshot -> after:snapshot -> snapshot
val add : snapshot -> snapshot -> snapshot
val zero : snapshot
