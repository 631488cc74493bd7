(** ISAM files, after Ingres's [modify ... to isam].

    [modify] sorts the records on the key, packs them into data pages up to
    [capacity * fillfactor] records each, and builds a static multi-level
    directory above them.  Directory entries hold keys only — children are
    physically contiguous, so child pointers are implicit (as in Ingres).
    With 4-byte keys a directory page holds 168 entries, so 128 data pages
    need one directory level and 256 need two, reproducing the fixed costs
    of Figure 9 (1 at 100% loading, 2 at 50%).

    Insertions after the [modify] go to the data page that should hold the
    key, overflowing into a chain hanging off that page; the directory never
    changes (it is "static"). *)

type t

val build :
  Buffer_pool.t ->
  record_size:int ->
  key_of:(bytes -> Tdb_relation.Value.t) ->
  key_type:Tdb_relation.Attr_type.t ->
  fillfactor:int ->
  bytes list ->
  t
(** Builds over an empty disk.  Records need not be pre-sorted. *)

val attach :
  Buffer_pool.t ->
  record_size:int ->
  key_of:(bytes -> Tdb_relation.Value.t) ->
  key_type:Tdb_relation.Attr_type.t ->
  fillfactor:int ->
  ndata:int ->
  levels:(int * int) list ->
  t
(** Re-opens an existing ISAM file from catalog metadata: [ndata] primary
    data pages and the directory [levels] as [(first_page, entry_count)]
    pairs, leaf first.  The per-page key bounds used to delimit duplicate
    runs are rebuilt by scanning the primary pages (their keys can only
    have narrowed since the build, which keeps lookups sound). *)

val levels : t -> (int * int) list
(** Directory layout for the catalog, [(first_page, entry_count)], leaf
    first. *)

val pfile : t -> Pfile.t

val with_pool : t -> Buffer_pool.t -> t
(** A read-path clone over a different (typically private) buffer pool;
    rebinds both the data and the directory pfile.  The underlying pages
    are shared.  See {!Pfile.with_pool}. *)

val fillfactor : t -> int
val data_pages : t -> int
(** Primary data pages (ids [0 .. data_pages - 1]). *)

val directory_pages : t -> int
val directory_height : t -> int

val insert : t -> bytes -> Tid.t
(** Traverses the directory (costing one page read per level), then
    first-fit into the target page's chain. *)

val read : t -> Tid.t -> bytes
val update : t -> Tid.t -> bytes -> unit
val delete : t -> Tid.t -> unit

val lookup :
  ?window:Time_fence.window ->
  t ->
  Tdb_relation.Value.t ->
  (Tid.t -> bytes -> unit) ->
  unit
(** ISAM access: directory descent, then the full chain of the target data
    page, presenting records with an equal key.  With [?window], chain
    pages whose time fence cannot overlap the window are skipped. *)

val iter :
  ?window:Time_fence.window -> t -> (Tid.t -> bytes -> unit) -> unit
(** Sequential scan: data pages and their overflow chains; the directory is
    not touched.  [?window] enables fence skipping as in {!lookup}. *)

val iter_range :
  ?window:Time_fence.window ->
  t ->
  ?lo:Tdb_relation.Value.t ->
  ?hi:Tdb_relation.Value.t ->
  (Tid.t -> bytes -> unit) ->
  unit
(** Ordered scan of records whose key is within \[lo, hi\] (inclusive on
    both ends; either bound may be omitted).  Reads the directory once to
    locate the first data page, then data pages and chains from there. *)

val scan_cursor :
  ?window:Time_fence.window -> ?keep:(bytes -> bool) -> t -> Cursor.t
(** Batched sequential scan; {!iter} is this cursor, drained.  On every
    cursor here, [keep] is ANDed after the cursor's own key filter in the
    page step ({!Cursor.and_keep}), so only records passing both are
    copied out. *)

val lookup_cursor :
  ?window:Time_fence.window ->
  ?keep:(bytes -> bool) ->
  t ->
  Tdb_relation.Value.t ->
  Cursor.t
(** Batched ISAM access; {!lookup} is this cursor, drained.  The
    directory descent happens at cursor-open time. *)

val range_cursor :
  ?window:Time_fence.window ->
  ?keep:(bytes -> bool) ->
  t ->
  lo:Tdb_relation.Value.t option ->
  hi:Tdb_relation.Value.t option ->
  Cursor.t
(** Batched ordered range scan; {!iter_range} is this cursor, drained. *)

val npages : t -> int

(** {1 Probe runs}

    A probe's primary data pages always form one contiguous run
    [\[start, stop)]: {!lookup_cursor} over [key] walks exactly the pages
    {!range_cursor} walks at [lo = hi = Some key], with the same record
    filter, so these three suffice to rebuild either probe as partitioned
    sub-runs (each data page owning its whole overflow chain). *)

val range_run :
  t -> lo:Tdb_relation.Value.t option -> hi:Tdb_relation.Value.t option ->
  int * int
(** The probe's data-page run [(start, stop)].  Performs the charged
    directory descent when [lo] is bounded — exactly the reads the
    sequential cursor would pay at open time. *)

val range_run_mem :
  t -> lo:Tdb_relation.Value.t option -> hi:Tdb_relation.Value.t option ->
  int * int
(** {!range_run} recomputed from the in-memory page-key bounds: no page is
    read, nothing is charged.  For admission previews only. *)

val range_filter :
  t -> lo:Tdb_relation.Value.t option -> hi:Tdb_relation.Value.t option ->
  bytes -> bool
(** The record filter {!range_cursor} applies — key within [\[lo, hi\]];
    with [lo = hi = Some key] it is {!lookup_cursor}'s equality filter. *)
