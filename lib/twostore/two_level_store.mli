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
  ?segment_pages:int ->
  ?journal:Tdb_storage.Journal.t ->
  schema:Tdb_relation.Schema.t ->
  organization:Tdb_storage.Relation_file.organization ->
  clustered:bool ->
  Tdb_relation.Tuple.t list ->
  t
(** Bulk-loads the given current versions into the primary store.  Raises
    [Invalid_argument] unless the schema is temporal-interval and the
    organization is keyed (hash or ISAM).  [segment_pages] sets the
    history store's time-segment page budget (see {!History_store}).

    [journal] routes both levels' page writes through a write-ahead
    journal — the primary store under [name], history pages under
    [name ^ ".history"] — and makes each {!append}, {!replace} and
    {!delete} its own journal statement (or part of the caller's, when
    one is already open).  The bulk load itself is not journalled. *)

val schema : t -> Tdb_relation.Schema.t
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
(** Every version in both stores (rollback and temporal-join queries). *)

type boundary
(** A snapshot bound: a transaction-time stamp plus the history store's
    append-only extent ({!History_store.boundary}) at capture time — the
    session layer's epoch fence, specialized to the two levels. *)

val boundary : t -> at:Tdb_time.Chronon.t -> boundary
(** Capture a bound pinning stamp [at] (a published commit's stamp, when
    used for snapshot isolation).  O(history pages), no page I/O. *)

val boundary_stamp : boundary -> Tdb_time.Chronon.t

val snapshot_scan : t -> boundary -> (Tdb_relation.Tuple.t -> unit) -> unit
(** Every version visible at the bound: {!as_of_cursor} at the boundary
    stamp, with history records filtered to the boundary's extent by a
    bounds check.  A statement later than the bound is never
    half-observed — its history pushes are out of bounds (even when they
    land in the free tail of a pre-boundary page) and its primary
    appends carry a later transaction-start, refuted by value.  Like
    {!as_of_cursor} this presents a fence-pruned superset of the
    qualifying versions; callers apply the exact overlap test.  In-place
    primary churn (replace/delete) must still serialize against the
    reader, as at the session layer. *)

val scan_cursor : ?window:Tdb_storage.Time_fence.window -> t -> Tdb_storage.Cursor.t
(** Batched scan of both levels (primary, then history); {!scan_all} is
    this cursor, drained.  Decode records with {!decode_record}. *)

val as_of_cursor : t -> at:Tdb_time.Chronon.t -> Tdb_storage.Cursor.t
(** Rollback access: every version whose transaction period can overlap
    [at] — a fence-pruned superset of the qualifying versions (callers
    apply the exact overlap test, as with {!scan_all}).  The primary
    store skip-scans on page fences; the history store binary-searches
    its time segments (see {!History_store.as_of_cursor}). *)

val partition_scan :
  ?window:Tdb_storage.Time_fence.window ->
  t ->
  parts:int ->
  (Tdb_storage.Cursor.t * Tdb_storage.Io_stats.t) list
(** Page-disjoint partitions spanning both levels (primary partitions
    first, then history segments); concatenated in list order they yield
    {!scan_cursor}'s rows exactly.  See
    {!Tdb_storage.Relation_file.partition_scan}. *)

val decode_record : t -> bytes -> Tdb_relation.Tuple.t
(** Decodes a record from either level's cursor (history records carry a
    trailing back-pointer the decoder never reads). *)

module Access : Tdb_storage.Cursor.ACCESS_METHOD with type file = t
(** The two-level store as an access method: keyed probes use the
    primary organization, then filter a history scan on the key. *)

val fetch_current : t -> Tdb_storage.Tid.t -> Tdb_relation.Tuple.t
(** Read one current version by address (for secondary indexes). *)

val current_tids : t -> (Tdb_storage.Tid.t * Tdb_relation.Tuple.t) list
(** Addresses of all current versions (bulk index builds).  Costs a scan. *)

val history_tids : t -> (Tdb_storage.Tid.t * Tdb_relation.Tuple.t) list

val attach_index :
  t ->
  name:string ->
  attr:int ->
  structure:Secondary_index.structure ->
  unit
(** Builds a 2-level secondary index on user attribute [attr] (a current
    index plus a history index, as in the paper's Figure 10) from the
    store's present contents, and maintains it through every subsequent
    {!append}, {!replace} and {!delete}. *)

val indexed_lookup :
  t ->
  name:string ->
  Tdb_relation.Value.t ->
  (Tdb_relation.Tuple.t -> unit) ->
  unit
(** A current-state query through the named index: reads the (small)
    current level and fetches the listed primary-store tuples — Figure 10's
    2-level-index path.  Raises [Not_found] for an unknown index name. *)

val index_stats : t -> name:string -> current:bool -> int * int
(** (entries, pages) of the current or history level of the named index. *)

val io : t -> Tdb_storage.Io_stats.snapshot
(** Combined primary + history I/O counters (indexes count their own I/O;
    see {!Secondary_index.io}). *)

val reset_io : t -> unit
(** Reset counters and chill both buffer pools. *)
