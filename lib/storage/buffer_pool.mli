(** A per-relation buffer pool.

    The paper "allocated only 1 buffer for each user relation so that a page
    resides in main memory only until another page from the same relation is
    brought in"; that is the default here.  Larger pools use LRU
    replacement.

    A fetch that misses counts one read in the pool's {!Io_stats.t}; a dirty
    frame flushed counts one write — an {e eviction} write when forced out
    to make room, a {e sync} write on explicit {!flush}/{!sync}.  Newly
    allocated pages are born resident and dirty, so creating and filling a
    page costs one write, not a read.  Hits, misses and evictions also feed
    the [tdb_pool_*] observability counters. *)

type t

val create : ?frames:int -> Disk.t -> Io_stats.t -> t
(** [frames] defaults to 1 and must be positive. *)

val stats : t -> Io_stats.t

val disk : t -> Disk.t
(** The backing disk, so parallel scan partitions can open private pools
    over the same pages. *)

val npages : t -> int

val attach_journal : t -> Journal.t -> file:string -> unit
(** Routes this pool's writes through the write-ahead journal under the
    given file tag: {!modify} captures first-touch pre-images,
    {!allocate} records extents, and every dirty-frame flush first makes
    the journal durable.  Also registers the pool with the journal as
    the reader for the tag's post-images.  Attach only a persistent
    relation's main pool — never the private partition pools, which are
    read-only. *)

val journal : t -> (Journal.t * string) option

val allocate : t -> int
(** A fresh zeroed page, resident and dirty. *)

val read : t -> int -> bytes
(** The page's current contents: the frame's bytes, which on a
    memory-backed disk may be the disk's stored image itself, shared
    with every other pool over that disk.  Never mutate them — use
    {!modify} for updates — and copy out what must outlive the next pool
    operation.  A miss counts one read in {!stats} whatever the backend:
    the meter is logical. *)

val modify : t -> int -> (bytes -> 'a) -> 'a
(** [modify t id f] applies [f] to the frame holding page [id] and marks it
    dirty (journalling a pre-image on the statement's first touch).  A
    frame holding a shared stored image is copied once, before its first
    write; file-backed frames own their buffer and are never copied. *)

val flush : t -> unit
(** Writes back all dirty frames (counting writes) but keeps them resident. *)

val sync : t -> unit
(** {!flush}, then fsyncs the backing disk: the checkpoint primitive. *)

val invalidate : t -> unit
(** Flushes, then empties the pool (used after [modify]/rebuild). *)

val resize : t -> frames:int -> unit
(** Changes the pool size (flushes first). *)
