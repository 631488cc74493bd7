(** Heap files: unordered pages filled in order of insertion.

    Used for temporary relations created by one-variable detachment, for
    [create]d relations before any [modify], and as one structure choice for
    secondary indexes. *)

type t

val create : Buffer_pool.t -> record_size:int -> t
(** A new empty heap over an empty disk. *)

val attach : Buffer_pool.t -> record_size:int -> t
(** A view over a disk that already holds heap pages. *)

val pfile : t -> Pfile.t

val with_pool : t -> Buffer_pool.t -> t
(** A read-path clone of the file over a different (typically private)
    buffer pool; the underlying pages are shared.  See
    {!Pfile.with_pool}. *)

val insert : t -> bytes -> Tid.t
val read : t -> Tid.t -> bytes
val update : t -> Tid.t -> bytes -> unit
val delete : t -> Tid.t -> unit
val iter :
  ?window:Time_fence.window -> t -> (Tid.t -> bytes -> unit) -> unit
(** Sequential scan: every page, in order; with [?window], pages whose
    time fence cannot overlap the window are skipped without a read. *)

val scan_cursor :
  ?window:Time_fence.window -> ?keep:(bytes -> bool) -> t -> Cursor.t
(** Batched sequential scan; {!iter} is this cursor, drained.  [keep]
    filters records in the page step, before they are copied out. *)

val lookup_cursor :
  ?window:Time_fence.window ->
  ?keep:(bytes -> bool) ->
  t ->
  Tdb_relation.Value.t ->
  Cursor.t

val range_cursor :
  ?window:Time_fence.window ->
  ?keep:(bytes -> bool) ->
  t ->
  lo:Tdb_relation.Value.t option ->
  hi:Tdb_relation.Value.t option ->
  Cursor.t
(** Keyless: both present every record and the caller filters. *)

val npages : t -> int
val record_count : t -> int
(** Counts by scanning (costs a scan's I/O). *)
