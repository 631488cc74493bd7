(** Stored relations: a schema plus an access method over a private disk.

    Every relation owns its own disk, buffer pool (1 frame by default, as in
    the paper's benchmark) and I/O counters.  A relation starts life as a
    heap; [modify] reorganizes it into hash or ISAM with a fillfactor,
    exactly like Ingres's [modify ... to hash/isam ... where fillfactor =
    N]. *)

type organization =
  | Heap
  | Hash of { key_attr : int; fillfactor : int }
  | Isam of { key_attr : int; fillfactor : int }

val organization_to_string : organization -> string

type t

val create :
  ?frames:int ->
  ?backing:[ `Mem | `File of string ] ->
  ?fault:Fault.t ->
  name:string ->
  schema:Tdb_relation.Schema.t ->
  unit ->
  t
(** A new empty heap relation.  [fault] attaches a fault-injection plan to
    the backing disk (see {!Fault}). *)

val set_journal : t -> Journal.t -> unit
(** Routes every write to this relation through the database's
    write-ahead journal (registering the relation under its name as the
    journal's file tag): page modifications capture pre-images, extents
    are recorded, dirty flushes wait for journal durability, and
    {!modify} journals the whole file before truncating it.  Called by
    the database right after create/attach for persistent relations. *)

val name : t -> string
val schema : t -> Tdb_relation.Schema.t
val organization : t -> organization
val stats : t -> Io_stats.t
val pool : t -> Buffer_pool.t
val npages : t -> int
val record_size : t -> int

val reader_view : t -> t
(** A snapshot reader's private view: same disk and pages, but a private
    1-frame buffer pool and private I/O counters, so concurrent readers
    never contend on the relation's own pool or skew its statistics.
    The view must only be read through; it installs no journal hooks.
    Flush the relation's own pool before taking a view so the shared
    disk holds every published page. *)

val key_attr : t -> int option
(** The key attribute index for hash/ISAM organizations. *)

val insert : t -> Tdb_relation.Tuple.t -> Tid.t
val read : t -> Tid.t -> Tdb_relation.Tuple.t
val update : t -> Tid.t -> Tdb_relation.Tuple.t -> unit
val delete : t -> Tid.t -> unit

type access_path =
  | Full_scan
  | Key_lookup of Tdb_relation.Value.t
  | Key_range of {
      lo : Tdb_relation.Value.t option;
      hi : Tdb_relation.Value.t option;
    }
(** The three questions a plan can ask of a stored relation.  Every
    organization answers every question (a heap answers a [Key_lookup]
    with a full scan — it has no key — and the caller filters). *)

val cursor :
  ?window:Time_fence.window ->
  ?keep:(bytes -> bool) ->
  t ->
  access_path ->
  Cursor.t
(** The unified access-path entry point: a batched cursor over raw
    records.  Batches are page-aligned, so the page I/O and fence-prune
    accounting are identical to the callback iterators below (which are
    these cursors, drained).  Decode records with {!decode}.

    [?keep] is a record filter ANDed after the access method's own
    key/range filter in the page step, so only records passing both are
    copied out of the frame: the cursor yields exactly the unfiltered
    cursor's records that pass [keep], in the same order, after the same
    reads, fence checks and skips.  [keep] must be pure and do no pool
    I/O; it runs on a per-page scratch record, so it must not keep a
    reference to its argument. *)

val decode : t -> bytes -> Tdb_relation.Tuple.t
(** Decodes one raw record yielded by {!cursor}. *)

type par_plan = {
  pp_parts : int;  (** partitions {!partition_access} would build *)
  pp_pages : int;  (** pages a worker would actually read (post-prune) *)
  pp_pruned_pages : int;  (** pages shard pruning would refute outright *)
}
(** What a partitioned execution of an access path would look like —
    the planner's admission evidence, also surfaced by [\explain]. *)

val partition_preview :
  ?window:Time_fence.window -> t -> parts:int -> access_path -> par_plan option
(** Sizes a partitioned execution without performing it: derived entirely
    from in-memory structures (fence tables, mirrored overflow links,
    ISAM page-key bounds), so no page is read and {e nothing} is charged
    to any counter — call it freely before deciding.  [None] when the
    access cannot fan out at all (a keyed hash probe with fencing off:
    its chain cannot even be sized without I/O). *)

val partition_access :
  ?window:Time_fence.window ->
  ?keep:(bytes -> bool) ->
  t ->
  parts:int ->
  access_path ->
  (Cursor.t * Io_stats.t) list option
(** Splits any access path into at most [parts] page-disjoint partitions
    for parallel execution: contiguous ranges of the chain heads the
    access walks (heap pages, hash buckets, ISAM primary pages — each
    owning its overflow chain outright), or, for a keyed hash probe,
    contiguous page runs of the key's single bucket chain.  Probe
    partitions carry the sequential cursor's record filter, ANDed with
    [?keep] exactly as {!cursor} applies it (so [keep] runs on worker
    domains: it must be pure and domain-safe), and an ISAM
    probe pays its directory descent here, against the relation's own
    stats, exactly as the sequential cursor does at open time.

    With a bounded [?window] (fencing on), a head whose
    every page is fence-refuted is dropped before assignment — a time
    shard never handed to any worker — and charged exactly the fence
    checks and page skips the sequential walk would have charged, so
    prune accounting stays bit-identical.

    Each partition reads through a private 1-frame buffer pool counted
    by the returned private stats; the relation's own pool and stats are
    untouched.  Concatenating the partitions in list order yields the
    sequential cursor's rows exactly, and the partitions' summed reads
    (plus fence skips) equal the sequential access's.  Fold the returned
    stats back with {!Io_stats.absorb} after the join.  [None] exactly
    when {!partition_preview} answers [None]. *)

val transaction_overlaps :
  Tdb_relation.Schema.t -> (Tdb_time.Period.t -> bytes -> bool) option
(** Tests a record's transaction period against a window straight from
    its encoded bytes — [Tuple.transaction_period] composed with
    [Period.overlaps], exactly, without allocating per record; [None]
    when the schema has no transaction time (then every tuple passes any
    as-of test).  Lets an executor refute a version against an as-of
    window without paying for a full decode.  Partially apply to the
    window outside the record loop. *)

val scan :
  ?window:Time_fence.window -> t -> (Tid.t -> Tdb_relation.Tuple.t -> unit) -> unit
(** Sequential scan (data pages and overflow chains; ISAM directories are
    not read).  With [?window], data pages whose time fence cannot hold a
    record overlapping the window are skipped without being read and
    charged to the prune counters; the surviving tuples and their order
    are exactly those of the unbounded scan that satisfy the window. *)

val lookup :
  ?window:Time_fence.window ->
  t ->
  Tdb_relation.Value.t ->
  (Tid.t -> Tdb_relation.Tuple.t -> unit) ->
  unit
(** Keyed access.  On a heap this degenerates to a filtered sequential scan
    (there is no key).  [?window] fence-skips as in {!scan}. *)

val lookup_range :
  ?window:Time_fence.window ->
  t ->
  ?lo:Tdb_relation.Value.t ->
  ?hi:Tdb_relation.Value.t ->
  (Tid.t -> Tdb_relation.Tuple.t -> unit) ->
  unit
(** Key-ordered access to tuples with key in \[lo, hi\] (inclusive; either
    bound optional).  Reads only the covering data pages on ISAM; on hash
    and heap organizations it degenerates to a filtered sequential scan.
    [?window] fence-skips as in {!scan}. *)

val modify : t -> organization -> unit
(** Reorganizes in place: extracts all records, rebuilds with the new
    organization.  Raises [Invalid_argument] if a key attribute index is out
    of range. *)

val tuple_count : t -> int
(** Counts by scanning. *)

type org_meta =
  | Heap_meta
  | Hash_meta of { key_attr : int; fillfactor : int; buckets : int }
  | Isam_meta of {
      key_attr : int;
      fillfactor : int;
      ndata : int;
      levels : (int * int) list;
    }
(** Everything the catalog must persist to re-open a relation without
    rebuilding it. *)

val org_meta : t -> org_meta

val attach :
  ?frames:int ->
  ?fault:Fault.t ->
  ?recover:bool ->
  backing:[ `Mem | `File of string ] ->
  name:string ->
  schema:Tdb_relation.Schema.t ->
  org_meta ->
  t
(** Re-opens a stored relation from its catalog metadata.  By default
    ([recover] = true) the backing file goes through the disk's recovery
    pass first (torn tails truncated, checksums validated — see
    {!Disk.open_file}); the findings are available via {!recovery}.
    Raises {!Tdb_error.Error} with class [Corruption] if the file is
    damaged beyond repair or too short for the catalog's accounting. *)

val recovery : t -> Disk.recovery option
(** The recovery report from {!attach}, if a pass ran and found work. *)

val set_first_fit : t -> bool -> unit
(** Switches the overflow placement policy of the underlying file (see
    {!Pfile.set_first_fit}); for experimentation. *)

val attr_offset : Tdb_relation.Schema.t -> int -> int
(** Byte offset of attribute [i] within an encoded tuple (exposed for index
    builders). *)

val fences_enabled : t -> bool

val sync : t -> unit
(** Flushes the pool, fsyncs the backing file, advances the write epoch
    (the per-relation checkpoint), and persists the fence summary sidecar
    so the next open can skip the rebuild scan. *)

val close : t -> unit
(** Flushes, fsyncs and closes the backing disk (persisting the fence
    summary first). *)

val abandon : t -> unit
(** Closes the backing file descriptor {e without} flushing — the
    simulated-crash teardown used by the fault-injection harness. *)
