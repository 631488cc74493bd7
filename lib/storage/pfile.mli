(** Paged record files: the machinery shared by every access method.

    A [Pfile.t] couples a buffer pool with a fixed record size and provides
    record-level reads and writes plus overflow-chain operations.  All
    records handed out are fresh copies; page frames never escape. *)

type t

val create : Buffer_pool.t -> record_size:int -> t

val with_pool : t -> Buffer_pool.t -> t
(** A read-path clone over a different buffer pool: same record layout and
    the {e same} fencing tables (safe while nothing writes), private
    first-fit hints.  Parallel scan partitions use one clone per worker so
    no page frame is shared across domains and each partition's I/O is
    counted against its own pool. *)

val pool : t -> Buffer_pool.t
val record_size : t -> int
val capacity : t -> int
(** Records per page for this record size. *)

val npages : t -> int
val allocate_page : t -> int

val read_record : t -> Tid.t -> bytes
(** Raises [Invalid_argument] if the slot is free. *)

val write_record : t -> Tid.t -> bytes -> unit
val clear_record : t -> Tid.t -> unit

val set_first_fit : t -> bool -> unit
(** Chooses the overflow placement policy: first-fit (default; reuses slack
    anywhere along the chain, as Ingres does) or tail-append (only the
    newest chain page accepts records).  Exposed for the bench ablation. *)

val first_fit : t -> bool

val chain_insert : t -> head:int -> bytes -> Tid.t
(** First-fit insertion along the overflow chain starting at page [head];
    appends a new overflow page when every page of the chain is full.
    First-fit is what makes odd-numbered update rounds at 50% loading fill
    the slack left by previous rounds (Figure 8(b)'s jagged lines).
    A per-head hint makes repeated insertion into long chains cheap. *)

val chain_iter :
  ?window:Time_fence.window -> t -> head:int -> (Tid.t -> bytes -> unit) -> unit
(** Visits every used record of the chain, touching each page once.  With
    [?window] (and fencing enabled), pages whose fence cannot
    overlap the window are skipped without being read: the walk follows
    the mirrored overflow link and charges the page to the prune
    counters.  Visit order of the surviving records is unchanged. *)

val chain_pages : t -> head:int -> int list
val chain_length : t -> head:int -> int

val cached_chain_pages : t -> head:int -> int list option
(** The chain's page list derived from the mirrored overflow links alone —
    no page is read, so nothing is charged to any counter.  [None] when
    fencing is off (the link table only exists, and is only complete,
    with fencing on).  Lets planners size and shard chains for free. *)

val page_iter :
  ?window:Time_fence.window -> t -> page:int -> (Tid.t -> bytes -> unit) -> unit
(** Visits the used records of a single page (no chain traversal); with
    [?window], the page may be fence-skipped as in {!chain_iter}. *)

(** {1 Cursor step primitives}

    One pull of a page-at-a-time walk, shared by {!Cursor} and the eager
    iterators above (which are defined in terms of them, so both paths
    read — and skip — exactly the same pages in the same order). *)

val page_step :
  ?window:Time_fence.window ->
  ?filter:(bytes -> bool) ->
  t ->
  page:int ->
  (Tid.t * bytes) list
(** The used records of one page that pass [filter] (all of them without
    one), in slot order.  Only the survivors are copied out of the frame:
    the others are tested in a per-page scratch record, so [filter] must
    not retain its argument.  A fence-skipped page yields [[]] and is
    charged to the prune counters, exactly like {!page_iter}.  The filter
    never changes which pages are read. *)

val chain_step :
  ?window:Time_fence.window ->
  ?filter:(bytes -> bool) ->
  t ->
  page:int ->
  (Tid.t * bytes) list * int option
(** One step of an overflow-chain walk: the page's records (as
    {!page_step}) and the successor page.  A fence-skipped page yields
    [[]] and follows the mirrored link without any read. *)

val observe_chain_length : int -> unit
(** Feed one completed chain walk's page count to the chain-length
    histogram (what {!chain_iter} records internally). *)

(** {1 Time fences}

    Optional per-page pruning metadata (see {!Time_fence}).  When enabled,
    every {!write_record} widens the written page's fence with the
    record's stamp and every overflow link a chain insert sets is
    mirrored, so fence-bounded walks can skip pages without reading them.
    Enabling fences over a file that already holds records requires a
    rebuild pass ({!rebuild_chain_fences}) or a reload of a persisted
    summary ({!set_fence} / {!set_cached_link}): a page without a fence
    entry is treated as empty and skipped. *)

val enable_fences : t -> stamp:(bytes -> Time_fence.stamp) -> unit
val fences_enabled : t -> bool

val fence_of : t -> int -> Time_fence.t option
val set_fence : t -> int -> Time_fence.t -> unit

val set_cached_link : t -> int -> int option -> unit

val rebuild_chain_fences : t -> head:int -> unit
(** Re-derive the fence and mirrored overflow link of every page along a
    whole overflow chain from its records. *)

val fence_entries : t -> (int * Time_fence.t) list
val link_entries : t -> (int * int) list
(** Snapshots for persisting the per-relation fence summary. *)
