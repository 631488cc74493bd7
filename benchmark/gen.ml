(* Seeded inputs: the paper's relations (section 5.1) and the statement
   streams of each workload.  The same seed gives the same tables and the
   same streams; the program only ever sees the generated text. *)

open Model

let window_start = lazy (Adapter.seconds_of_literal "1980-01-01")
let window_end = lazy (Adapter.seconds_of_literal "1980-02-15")

(* The database clock starts after the load window, so every update is
   stamped later than every loaded version. *)
let evolution_start = lazy (Adapter.seconds_of_literal "1980-03-01")

(* The two probe tuples the paper's Q07/Q08/Q12 select by amount. *)
let hot_amount = function H -> (700, 69400) | I -> (73, 73700)

let random_string rng = String.init 96 (fun _ -> Char.chr (97 + Random.State.int rng 26))

let random_amount rng =
  let rec draw () =
    let a = Random.State.int rng 100000 in
    if a = 69400 || a = 73700 then draw () else a
  in
  draw ()

let random_stamp rng =
  let lo = Lazy.force window_start in
  lo + Random.State.int rng (Lazy.force window_end - lo)

let table ~seed ~rows w =
  let rng = Random.State.make [| seed; (match w with H -> 17 | I -> 23) |] in
  let hot_id, hot = hot_amount w in
  Array.init rows (fun id ->
      let r_amount = if id = hot_id then hot else random_amount rng in
      let r_stamp = random_stamp rng in
      { r_id = id; r_amount; r_str = random_string rng; r_stamp })

(* The tab-separated form [copy ... from] reads: every attribute, the
   implicit valid and transaction periods included. *)
let write_tsv path rows =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  let forever = Adapter.literal_of_seconds Model.forever in
  Array.iter
    (fun r ->
      let stamp = Adapter.literal_of_seconds r.r_stamp in
      Printf.fprintf oc "%d\t%d\t0\t%s\t%s\t%s\t%s\t%s\n" r.r_id r.r_amount r.r_str
        stamp forever stamp forever)
    rows

(* --- statement streams --- *)

type op = Read of query | Write of write

let text = function Read q -> query_text q | Write w -> write_text w
let pick_rel rng = if Random.State.bool rng then H else I

(* The paper's twelve queries round-robin, then one keyed lookup and
   eight keyed replaces at seeded keys.  Key 500, the paper's probe key,
   is never replaced. *)
let paper ~seed ~rows =
  let rng = Random.State.make [| seed; 101 |] in
  let key () =
    let rec draw () =
      let k = Random.State.int rng rows in
      if k = 500 then draw () else k
    in
    draw ()
  in
  let pos = ref 0 in
  fun () ->
    let p = !pos in
    pos := (p + 1) mod 21;
    if p < 12 then Read (Paper (p + 1))
    else if p = 12 then Read (Current_key (pick_rel rng, key ()))
    else Write (Replace_key (pick_rel rng, key ()))

(* Keyed traffic with the paper's section 5.4 skew: 90% of keys come from
   the hottest 10% of ids.  70% current lookups, 10% version scans, 15%
   replaces, 5% appends of fresh ids. *)
let keyed ~seed ~rows =
  let rng = Random.State.make [| seed; 202 |] in
  let key () =
    if Random.State.int rng 10 < 9 then Random.State.int rng (max 1 (rows / 10))
    else Random.State.int rng rows
  in
  let next_id = [| rows; rows |] in
  let fresh w =
    let slot = match w with H -> 0 | I -> 1 in
    let id = next_id.(slot) in
    next_id.(slot) <- id + 1;
    {
      r_id = id;
      r_amount = random_amount rng;
      r_str = random_string rng;
      r_stamp = 0;
    }
  in
  fun () ->
    let w = pick_rel rng in
    match Random.State.int rng 100 with
    | n when n < 70 -> Read (Current_key (w, key ()))
    | n when n < 80 -> Read (Versions (w, key ()))
    | n when n < 95 -> Write (Replace_key (w, key ()))
    | _ -> Write (Append (w, fresh w))

(* The k-th point of a low-discrepancy sequence in [0, 1) with a seeded
   offset: instants and widths spread evenly over their range in every
   run, so the mix of cheap and costly scans is the same from seed to
   seed. *)
let spread ~offset k = Float.rem (offset +. (float_of_int k *. 0.6180339887498949)) 1.0

(* Analytic reads over relations larger than the CPU caches, in a fixed
   cycle so every run holds the same mix: an ISAM id-range scan, a
   precede join as of an instant in the first hours of the load window,
   two as-of scans at instants across the load window, a non-key scan
   for an amount some row holds, and two keyed replaces. *)
let scan ~seed ~rows ~(tables : which -> row array) =
  let rng = Random.State.make [| seed; 303 |] in
  let offset = Random.State.float rng 1.0 in
  let lo = Lazy.force window_start and span = Lazy.force window_end - Lazy.force window_start in
  let pos = ref 0 in
  fun () ->
    let p = !pos in
    pos := p + 1;
    let at ~from ~width = from + int_of_float (spread ~offset (p / 7) *. float_of_int width) in
    match p mod 7 with
    | 0 ->
        let width = at ~from:100 ~width:901 in
        let first = Random.State.int rng (max 1 (rows - width)) in
        Read (Id_range (first, first + width - 1))
    | 1 -> Read (Precede_join (at ~from:(lo + 1800) ~width:9000))
    | 2 -> Read (As_of (pick_rel rng, at ~from:lo ~width:span))
    | 3 -> Read (As_of (pick_rel rng, lo + span - 1 - (at ~from:0 ~width:span)))
    | 4 ->
        let w = pick_rel rng in
        Read (Current_amount (w, (tables w).(Random.State.int rng rows).r_amount))
    | _ -> Write (Replace_key (pick_rel rng, Random.State.int rng rows))

(* Only the reads, or only the writes, of a stream, in stream order. *)
let only keep next =
  let rec go () = match next () with op when keep op -> op | _ -> go () in
  go

let is_read = function Read _ -> true | Write _ -> false
