module Chronon = Tdb_time.Chronon
module Period = Tdb_time.Period
module Metric = Tdb_obs.Metric

(* A fence summarises every record ever written to a page as one rectangle
   per time dimension.  Fences only widen: clearing a slot leaves the fence
   alone, so a fence may over-approximate the live records (reading a page
   that could have been skipped) but never under-approximate them (skipping
   a page that holds a qualifying record). *)

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

let empty () =
  {
    min_tstart = Chronon.forever;
    max_tstop = Chronon.beginning;
    min_vfrom = Chronon.forever;
    max_vto = Chronon.beginning;
  }

let is_empty t = Chronon.compare t.min_tstart t.max_tstop > 0

let copy t =
  {
    min_tstart = t.min_tstart;
    max_tstop = t.max_tstop;
    min_vfrom = t.min_vfrom;
    max_vto = t.max_vto;
  }

(* Normalise a stored [start, stop] pair to a non-empty half-open interval.
   Degenerate versions (stop <= start: a tuple superseded in the chronon it
   appeared) are events per [Period.make]; an event at [c] behaves exactly
   like the half-open interval [c, succ c). *)
let interval start stop =
  if Chronon.compare stop start <= 0 then (start, Chronon.succ start)
  else (start, stop)

(* The full-range pair used for a dimension the schema does not carry: a
   page of such records can never be skipped on that dimension. *)
let unbounded = (Chronon.beginning, Chronon.forever)

let stamp ~transaction ~valid =
  let tstart, tstop = match transaction with
    | Some (s, e) -> interval s e
    | None -> unbounded
  and vfrom, vto = match valid with
    | Some (s, e) -> interval s e
    | None -> unbounded
  in
  { tstart; tstop; vfrom; vto }

let note t (s : stamp) =
  t.min_tstart <- Chronon.min t.min_tstart s.tstart;
  t.max_tstop <- Chronon.max t.max_tstop s.tstop;
  t.min_vfrom <- Chronon.min t.min_vfrom s.vfrom;
  t.max_vto <- Chronon.max t.max_vto s.vto

let absorb dst src =
  dst.min_tstart <- Chronon.min dst.min_tstart src.min_tstart;
  dst.max_tstop <- Chronon.max dst.max_tstop src.max_tstop;
  dst.min_vfrom <- Chronon.min dst.min_vfrom src.min_vfrom;
  dst.max_vto <- Chronon.max dst.max_vto src.max_vto

(* --- query windows --- *)

type window = { transaction : Period.t option; valid : Period.t option }

(* Adding a bound is only sound when the dimension was unbounded: a page
   whose records satisfy two independent constraints separately need not
   contain a record satisfying their intersection, so an existing bound is
   kept rather than narrowed. *)
let narrow_valid window period =
  match period with
  | None -> window
  | Some _ -> (
      match window with
      | None -> Some { transaction = None; valid = period }
      | Some w -> if w.valid = None then Some { w with valid = period } else window)

let window_is_unbounded w =
  Option.is_none w.transaction && Option.is_none w.valid

(* Mirror [Period.overlaps]: a window period [p] admits the half-open
   interval [lo, hi) iff lo < w2 && w1 < hi, where [w1, w2) is [p] itself
   made half-open (an event at c becomes [c, succ c), which matches
   [Period.contains] on both events and intervals; [succ] saturates at
   forever, and nothing starts at forever, so the saturated case stays
   exact). *)
let dim_admits ~min_start ~max_stop p =
  let w1 = Period.from_ p in
  let w2 =
    if Period.is_event p then Chronon.succ (Period.from_ p) else Period.to_ p
  in
  Chronon.compare min_start w2 < 0 && Chronon.compare w1 max_stop < 0

let may_overlap t w =
  (match w.transaction with
  | Some p -> dim_admits ~min_start:t.min_tstart ~max_stop:t.max_tstop p
  | None -> true)
  &&
  (match w.valid with
  | Some p -> dim_admits ~min_start:t.min_vfrom ~max_stop:t.max_vto p
  | None -> true)

(* --- accounting --- *)

(* Raw counter: the bench must read exact skip counts whether or not the
   metric registry is enabled (same rationale as Io_stats). *)
let skipped_raw = Metric.raw ()
let m_skipped = Metric.counter "tdb_prune_pages_skipped_total"
let m_checks = Metric.counter "tdb_prune_fence_checks_total"

let note_check () = Metric.incr m_checks

let note_skipped n =
  Metric.add skipped_raw n;
  Metric.add m_skipped n;
  Tdb_obs.Trace.note_skip n

let pages_skipped () = Metric.count skipped_raw
let reset_pages_skipped () = Metric.reset_counter skipped_raw

(* --- sidecar text form --- *)

let to_fields t =
  List.map
    (fun c -> string_of_int (Chronon.to_seconds c))
    [ t.min_tstart; t.max_tstop; t.min_vfrom; t.max_vto ]

let of_fields = function
  | [ a; b; c; d ] -> (
      match
        (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c,
         int_of_string_opt d)
      with
      | Some a, Some b, Some c, Some d ->
          Some
            {
              min_tstart = Chronon.of_seconds a;
              max_tstop = Chronon.of_seconds b;
              min_vfrom = Chronon.of_seconds c;
              max_vto = Chronon.of_seconds d;
            }
      | _ -> None)
  | _ -> None

let pp ppf t =
  if is_empty t then Fmt.pf ppf "(empty)"
  else
    Fmt.pf ppf "t:[%a,%a) v:[%a,%a)" Chronon.pp t.min_tstart Chronon.pp
      t.max_tstop Chronon.pp t.min_vfrom Chronon.pp t.max_vto
