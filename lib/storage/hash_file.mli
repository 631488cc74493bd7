(** Static hash files, after Ingres's [modify ... to hash].

    [modify] sizes the primary area as [ceil(n / (capacity * fillfactor))]
    buckets; each bucket is one primary page plus an overflow chain.
    Records hash on a key extracted by a caller-supplied function, so the
    same structure serves user relations (key = an attribute) and secondary
    indexes (key = the indexed value).

    All versions of a tuple share the same key, so chains "grow ever
    longer" with the update count — the central performance phenomenon the
    paper studies. *)

type t

val build :
  Buffer_pool.t ->
  record_size:int ->
  key_of:(bytes -> Tdb_relation.Value.t) ->
  fillfactor:int ->
  bytes list ->
  t
(** Builds over an empty disk.  [fillfactor] is a percentage in 1..100.
    With an empty record list one bucket is still allocated. *)

val attach :
  Buffer_pool.t ->
  record_size:int ->
  key_of:(bytes -> Tdb_relation.Value.t) ->
  fillfactor:int ->
  buckets:int ->
  t
(** Re-opens an existing hash file whose bucket count is known (from the
    catalog). *)

val buckets : t -> int
val fillfactor : t -> int
val pfile : t -> Pfile.t

val with_pool : t -> Buffer_pool.t -> t
(** A read-path clone over a different (typically private) buffer pool;
    the underlying pages are shared.  See {!Pfile.with_pool}. *)

val bucket_of : t -> Tdb_relation.Value.t -> int

val insert : t -> bytes -> Tid.t
val read : t -> Tid.t -> bytes
val update : t -> Tid.t -> bytes -> unit
val delete : t -> Tid.t -> unit

val lookup :
  ?window:Time_fence.window ->
  t ->
  Tdb_relation.Value.t ->
  (Tid.t -> bytes -> unit) ->
  unit
(** Hashed access: reads the key's full bucket chain and presents records
    whose key equals the probe (the conventional method cannot stop early —
    any page of the chain may hold a matching version).  With [?window],
    chain pages whose time fence cannot overlap the window are skipped. *)

val iter :
  ?window:Time_fence.window -> t -> (Tid.t -> bytes -> unit) -> unit
(** Sequential scan: every bucket chain; touches every page once (minus
    fence-skipped pages under [?window]). *)

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
(** Batched hashed access; {!lookup} is this cursor, drained. *)

val range_cursor :
  ?window:Time_fence.window ->
  ?keep:(bytes -> bool) ->
  t ->
  lo:Tdb_relation.Value.t option ->
  hi:Tdb_relation.Value.t option ->
  Cursor.t
(** No order in a hash file: a full scan filtered to \[lo, hi\]. *)

val lookup_filter : t -> Tdb_relation.Value.t -> bytes -> bool
(** The record filter {!lookup_cursor} applies (key equality), for
    partitioned probes that must filter exactly as the sequential cursor
    does. *)

val range_filter :
  t -> lo:Tdb_relation.Value.t option -> hi:Tdb_relation.Value.t option ->
  bytes -> bool
(** The record filter {!range_cursor} applies (key within [\[lo, hi\]]). *)

val npages : t -> int
val chain_pages : t -> Tdb_relation.Value.t -> int
(** Length (in pages) of the key's bucket chain. *)
