(** Database evolution (paper, sections 5.1 and 5.4).

    Uniform evolution replaces every current version once per round
    ("incrementing the value of the seq attribute in each of the current
    versions"), raising the average update count by one.  The non-uniform
    variant repeatedly updates a single tuple so that the average update
    count rises by one per 1024 replacements — the maximum-variance case
    of section 5.4. *)

val uniform_round : Workload.t -> round:int -> unit
(** Runs one uniform update round: sets the clock to a fresh instant
    (1980-03-01 + round days), then replaces every current version of both
    relations once. *)

val non_uniform_round : Workload.t -> round:int -> key:int -> unit
(** Replaces the single tuple [key] of the hashed relation 1024 times (one
    clock tick apart), raising its average update count by one — the
    paper's section 5.4 studies hashed access under this maximum-variance
    skew.  (Each replacement re-reads the tuple's ever-growing overflow
    chain: the O(n^2) update cost the paper notes.) *)

val hashed_access_cost : Workload.t -> key:int -> int
(** Pages read by a hashed access to one key of [h] (Q01's operation),
    measured cold through the storage layer. *)

val measure_query :
  ?config:Tdb_query.Executor.config -> Workload.t -> string -> int
(** Input cost (pages read) of one TQuel query run under [config]
    (default {!Tdb_query.Executor.default_config}), measured cold:
    buffers emptied and counters reset first.  Raises [Failure] on
    errors. *)

val measure_query_result :
  ?config:Tdb_query.Executor.config -> Workload.t -> string -> int * int
(** (input pages, result rows). *)

val sizes : Workload.t -> int * int
(** Current (h, i) file sizes in pages. *)
