(** Per-page time fences: the pruning metadata behind temporal skip-scans.

    A fence records, for one page, the minimum
    transaction-start / valid-from and maximum transaction-stop / valid-to
    chronon over every record ever written there.  Fences are {e
    conservative}: they only widen — in-place updates and slot clears never
    shrink them — so a fence can at worst cause a page to be read
    needlessly, never skipped wrongly.  Recovery (and any doubt about
    persisted summaries) rebuilds fences from the records themselves. *)

module Chronon := Tdb_time.Chronon
module Period := Tdb_time.Period

type t = {
  mutable min_tstart : Chronon.t;
  mutable max_tstop : Chronon.t;
  mutable min_vfrom : Chronon.t;
  mutable max_vto : Chronon.t;
}

type stamp = {
  tstart : Chronon.t;
  tstop : Chronon.t;
  vfrom : Chronon.t;
  vto : Chronon.t;
}
(** One record's contribution, already normalised to non-empty half-open
    intervals per dimension. *)

val empty : unit -> t
(** The fence of a page with no records; it admits no window. *)

val copy : t -> t

val stamp :
  transaction:(Chronon.t * Chronon.t) option ->
  valid:(Chronon.t * Chronon.t) option ->
  stamp
(** Builds a stamp from raw [start, stop] attribute pairs.  Degenerate
    pairs (stop <= start) denote events and are normalised to
    [start, succ start); a missing dimension becomes the full time range,
    so pages are never skipped on a dimension the schema lacks. *)

val note : t -> stamp -> unit
(** Widen the fence to cover one record. *)

val absorb : t -> t -> unit
(** [absorb dst src] widens [dst] to cover everything [src] covers. *)

(** {1 Query windows} *)

type window = { transaction : Period.t option; valid : Period.t option }
(** The temporal bounds pushed down from [as of] (transaction dimension)
    and a constant [when ... overlap] clause (valid dimension).  [None]
    means unbounded on that dimension. *)

val window_is_unbounded : window -> bool

val narrow_valid : window option -> Period.t option -> window option
(** [narrow_valid w p] bounds [w]'s valid dimension by [p] when it was
    unbounded — the temporal join pushes the outer side's valid envelope
    into the inner scan this way.  A window whose valid dimension is
    already bounded is returned unchanged: its existing bound was derived
    from a different conjunct, and a page can satisfy two bounds
    separately without any single record satisfying both, so replacing
    either with their intersection could skip wrongly. *)

val may_overlap : t -> window -> bool
(** Whether any record covered by the fence can overlap the window on
    every bounded dimension; mirrors [Period.overlaps] exactly, so a page
    may be skipped iff no record on it can satisfy the corresponding
    [Period.overlaps] test.  [false] on an {!empty} fence. *)

(** {1 Accounting}

    There is no pruning switch here: a walk prunes exactly when its
    caller hands it a bounded window.  The executor withholds the window
    when a statement runs with pruning off, and every scan then reads
    every page as the paper's cost model assumes; fences are still
    maintained. *)

val note_check : unit -> unit
(** Count one fence consultation ([tdb_prune_fence_checks_total]). *)

val note_skipped : int -> unit
(** Charge [n] skipped pages to the raw counter, the
    [tdb_prune_pages_skipped_total] metric and the active trace span. *)

val pages_skipped : unit -> int
(** Exact number of pages skipped since the last reset (raw counter,
    counts whether or not metrics are enabled). *)

val reset_pages_skipped : unit -> unit

(** {1 Sidecar text form} *)

val to_fields : t -> string list
val of_fields : string list -> t option

val pp : t Fmt.t
