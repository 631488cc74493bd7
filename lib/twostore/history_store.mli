(** The history store of the two-level scheme (paper, section 6).

    Holds superseded tuple versions linked into per-tuple chains through
    back-pointers (each record carries the address of the next older
    version).  Two placement policies:

    - {e simple}: records are appended wherever space is free, so a tuple's
      versions scatter — following a chain of [k] versions costs about [k]
      page reads;
    - {e clustered}: each tuple's versions are packed into pages owned by
      that tuple ("clustering history versions of the same tuple into a
      minimum number of pages"), so the chain walk costs
      [ceil(k / capacity)] reads.

    Records are a stored tuple plus a 4-byte back-pointer, so a page holds
    [floor(1012 / (tuple_size + 6))] versions — 7 temporal tuples, matching
    the paper's "28 history versions into 4 pages".

    Pages are additionally grouped into {e time-ordered segments}: fresh
    pages are only ever allocated to the newest segment, so segment
    creation times are non-decreasing and {!as_of_cursor} can binary-search
    to the covering boundary and fence-skip later segments wholesale.
    Placement tails survive segment turnover — clustering keeps priority —
    so a push landing on an older segment's tail page widens that
    segment's push range and fence instead. *)

type t

val create :
  ?stamp:(bytes -> Tdb_storage.Time_fence.stamp) ->
  ?segment_pages:int ->
  Tdb_storage.Buffer_pool.t ->
  tuple_size:int ->
  clustered:bool ->
  t
(** Over an empty disk.  [stamp] (usually
    [Relation_file.stamp_extractor schema]) enables page and segment time
    fences; without it {!as_of_cursor} reads every page.  [segment_pages]
    (default 16) is the segment page budget. *)

val clustered : t -> bool
val npages : t -> int

val segment_count : t -> int
val segment_ranges : t -> (int * int) list
(** Oldest first, as [(first_page, last_page)] inclusive page ranges. *)

val push :
  t ->
  now:Tdb_time.Chronon.t ->
  cluster:Tdb_relation.Value.t ->
  tuple:bytes ->
  prev:Tdb_storage.Tid.t option ->
  Tdb_storage.Tid.t
(** Stores a version whose next-older version is [prev]; returns its
    address (the new chain head).  [cluster] identifies the tuple for the
    clustered policy (ignored by the simple one); [now] is the push time
    recorded against the receiving segment. *)

val read : t -> Tdb_storage.Tid.t -> bytes * Tdb_storage.Tid.t option
(** The stored tuple and its back-pointer. *)

type boundary
(** A point-in-time extent of the store: per-page record counts at the
    instant {!boundary} was called.  The store is append-only and never
    deletes, so a record is {!within} a boundary iff it had been pushed
    when the boundary was captured — even when a later clustered push
    lands in the free tail of a page that predates the boundary.  This
    is the epoch fence of the session layer: a snapshot reader captures
    the boundary at a published commit and filters scans with {!within},
    so a concurrent statement's pushes are invisible by a bounds check,
    with no lock held. *)

val boundary : t -> boundary
(** Capture the store's current extent.  O(pages), no page I/O. *)

val within : boundary -> Tdb_storage.Tid.t -> bool
(** Whether the record at this address existed when the boundary was
    captured. *)

val walk :
  t ->
  head:Tdb_storage.Tid.t option ->
  (Tdb_storage.Tid.t -> bytes -> unit) ->
  unit
(** Visits versions newest-first along the chain. *)

val iter : t -> (Tdb_storage.Tid.t -> bytes -> unit) -> unit
(** Full sequential scan of the store. *)

val scan_cursor :
  ?window:Tdb_storage.Time_fence.window -> t -> Tdb_storage.Cursor.t
(** Batched sequential scan; {!iter} is this cursor (unwindowed),
    drained.  Records carry the trailing back-pointer — decode the tuple
    prefix with [Tuple.decode schema record 0].  [?window] fence-skips
    pages when the store has stamps. *)

val partition_scan :
  ?window:Tdb_storage.Time_fence.window ->
  t ->
  parts:int ->
  (Tdb_storage.Cursor.t * Tdb_storage.Io_stats.t) list
(** Splits the sequential scan into at most [parts] partitions, each a
    contiguous run of whole time segments (oldest first) read through a
    private 1-frame pool with private stats.  Segments are time shards:
    under a bounded [?window] (store stamped) a
    fence-refuted segment is dropped before assignment, charged exactly
    the per-page checks and skips the sequential scan would have
    charged.  No page appears in two partitions; concatenating the
    partitions in list order yields {!scan_cursor}'s rows exactly, with
    identical read and prune accounting. *)

val scan_partitions :
  ?window:Tdb_storage.Time_fence.window -> t -> parts:int -> int
(** How many partitions {!partition_scan} would return (bounded by the
    count of segments surviving shard pruning under [?window]), without
    building them and without charging anything. *)

val as_of_cursor : t -> at:Tdb_time.Chronon.t -> Tdb_storage.Cursor.t
(** Rollback access: yields at least every version whose transaction
    period overlaps [at], in store order.  Binary-searches the segments'
    push-time ranges to the covering boundary; segments pushed after [at]
    are skipped wholesale when their fence proves no version started by
    [at], and surviving segments still fence-check each page.  Presented
    versions are a superset of the qualifying ones — callers apply the
    exact overlap test.  Without a stamp extractor this is a full
    scan. *)
