(** Unified access-path cursors: batched record delivery for every access
    method.

    A cursor pulls page-sized chunks from a {!Pfile} walk and accumulates
    them into batches of about {!target} records.  Batches are
    page-aligned — a page's records are never split across two batches —
    and the chunk functions are the same {!Pfile.page_step} /
    {!Pfile.chain_step} primitives the eager iterators use, so a cursor
    reads (and fence-skips) exactly the pages the equivalent eager walk
    would, in the same order.  Only tuple flow is batched; page I/O is
    invariant by construction. *)

type batch = { tids : Tid.t array; records : bytes array }
(** Parallel arrays; [records] are fresh copies, never page frames. *)

val target : int
(** Records per batch a cursor aims for (64).  Batches may run over —
    they end on the page boundary that reaches the target — or under, on
    the last batch of a walk. *)

type t

val next : t -> batch option
(** The next non-empty batch, or [None] once exhausted.  Pulling reads
    whole pages until the target is reached; every page read or skipped
    is accounted exactly as in the eager walk. *)

val iter : t -> (Tid.t -> bytes -> unit) -> unit
(** Drain the cursor, batch by batch. *)

val fold : t -> init:'a -> ('a -> Tid.t -> bytes -> 'a) -> 'a

val empty : t

val and_keep :
  (bytes -> bool) option -> (bytes -> bool) option -> (bytes -> bool) option
(** [and_keep keep filter] tests a record with [filter] (an access
    method's key or range filter), then with [keep] (a caller's compiled
    restriction); either may be absent. *)

val of_pages :
  ?window:Time_fence.window ->
  ?filter:(bytes -> bool) ->
  Pfile.t ->
  pages:int Seq.t ->
  t
(** One chunk per page of [pages], via {!Pfile.page_step} (fence-skipped
    pages yield nothing and are charged to the prune counters).  [filter]
    is handed to the step, which copies only the records that pass it out
    of the frame (key-equality and range predicates of the keyed access
    methods, ANDed with a caller's restriction by {!and_keep}). *)

val of_chains :
  ?window:Time_fence.window ->
  ?filter:(bytes -> bool) ->
  Pfile.t ->
  heads:int Seq.t ->
  t
(** One chunk per page of each overflow chain, via {!Pfile.chain_step};
    completed walks feed the chain-length histogram exactly like
    {!Pfile.chain_iter}.  [heads] is consumed lazily, so a head sequence
    may depend on state the walk updates. *)
