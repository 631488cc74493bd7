(** The two-level store (paper, section 6): "the primary store contains
    current versions which can satisfy all non-temporal queries ...; the
    history store holds the remaining history versions".

    The primary store is an ordinary {!Tdb_storage.Relation_file} (hash or
    ISAM organized) holding exactly the current version of every tuple —
    updates happen {e in place}, so it never grows and never develops
    overflow chains: non-temporal queries keep their update-count-0 cost
    forever.  Superseded versions move to the {!History_store}, linked from
    the current version through per-tuple back-pointer chains.

    Only temporal-interval relations are supported (the structure exists to
    study the paper's Figure 10, which is about the temporal database). *)

type t

val create :
  ?name:string ->
  schema:Tdb_relation.Schema.t ->
  organization:Tdb_storage.Relation_file.organization ->
  clustered:bool ->
  Tdb_relation.Tuple.t list ->
  t
(** Bulk-loads the given current versions into the primary store.  Raises
    [Invalid_argument] unless the schema is temporal-interval and the
    organization is keyed (hash or ISAM). *)

val primary : t -> Tdb_storage.Relation_file.t
val history_pages : t -> int
val primary_pages : t -> int

val append : t -> now:Tdb_time.Chronon.t -> Tdb_relation.Tuple.t -> unit
(** Inserts a brand-new tuple (stamped like a temporal append). *)

val replace :
  t ->
  now:Tdb_time.Chronon.t ->
  key:Tdb_relation.Value.t ->
  (Tdb_relation.Tuple.t -> Tdb_relation.Tuple.t) ->
  int
(** The temporal [replace] of section 4, restructured for the two-level
    store: the superseded version and the "validity ended" version go to
    the history store; the new current version overwrites the old one in
    place.  Returns the number of tuples replaced. *)

val delete : t -> now:Tdb_time.Chronon.t -> key:Tdb_relation.Value.t -> int
(** Temporal delete: both closing versions go to history; the tuple leaves
    the primary store. *)

val current_lookup :
  t -> Tdb_relation.Value.t -> (Tdb_relation.Tuple.t -> unit) -> unit
(** A static query by key: touches the primary store only (Q05's shape). *)

val current_scan : t -> (Tdb_relation.Tuple.t -> unit) -> unit
(** A static scan: the primary store only (Q07's shape). *)

val version_scan :
  t -> Tdb_relation.Value.t -> (Tdb_relation.Tuple.t -> unit) -> unit
(** All versions of a tuple as currently known, newest first: the primary
    version, then its history chain (Q01's shape). *)

val scan_all : t -> (Tdb_relation.Tuple.t -> unit) -> unit
(** Every version in both stores: {!current_scan}, then the history store
    page by page (rollback and temporal-join queries; Q03's shape). *)

val fetch_current : t -> Tdb_storage.Tid.t -> Tdb_relation.Tuple.t
(** Read one current version by address (for secondary indexes). *)

val current_tids : t -> (Tdb_storage.Tid.t * Tdb_relation.Tuple.t) list
(** Addresses of all current versions (bulk index builds).  Costs a scan. *)

val history_tids : t -> (Tdb_storage.Tid.t * Tdb_relation.Tuple.t) list

val io : t -> Tdb_storage.Io_stats.snapshot
(** Combined primary + history I/O counters (indexes count their own I/O;
    see {!Secondary_index.io}). *)

val reset_io : t -> unit
(** Reset counters and chill both buffer pools. *)
