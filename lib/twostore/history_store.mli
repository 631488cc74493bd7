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
    the paper's "28 history versions into 4 pages". *)

type t

val create :
  Tdb_storage.Buffer_pool.t -> tuple_size:int -> clustered:bool -> t
(** Over an empty disk. *)

val clustered : t -> bool
val npages : t -> int

val push :
  t ->
  cluster:Tdb_relation.Value.t ->
  tuple:bytes ->
  prev:Tdb_storage.Tid.t option ->
  Tdb_storage.Tid.t
(** Stores a version whose next-older version is [prev]; returns its
    address (the new chain head).  [cluster] identifies the tuple for the
    clustered policy (ignored by the simple one). *)

val read : t -> Tdb_storage.Tid.t -> bytes * Tdb_storage.Tid.t option
(** The stored tuple and its back-pointer. *)

val walk :
  t ->
  head:Tdb_storage.Tid.t option ->
  (Tdb_storage.Tid.t -> bytes -> unit) ->
  unit
(** Visits versions newest-first along the chain. *)

val iter : t -> (Tdb_storage.Tid.t -> bytes -> unit) -> unit
(** Full sequential scan of the store, page by page. *)
