(* Spans recorded by the benchmark around its calls into each layer.

   One statement is one trace: a root span ["statement"] and the spans
   of the steps under it.  Each domain records into its own recorder, so
   recording takes no lock; the recorders are merged when the run ends.
   A span's self time is its duration minus the part of it that its
   children cover. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = { name : string; parent : int; t0 : int; t1 : int }
(** [parent] indexes the statement's span array; the root has [-1]. *)

(* Self time of every span of one trace.  Children may nest and, in
   principle, overlap; only the union of their intervals inside the
   parent counts as covered. *)
let self_times (spans : span array) =
  Array.mapi
    (fun i s ->
      let kids =
        Array.to_list spans
        |> List.filter (fun c -> c.parent = i)
        |> List.map (fun c -> (max s.t0 c.t0, min s.t1 c.t1))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (acc + (b - a), b) else (acc, reach))
          (0, min_int) kids
      in
      s.t1 - s.t0 - covered)
    spans

(* A set of intervals as a sorted array of disjoint [lo, hi) pieces, and
   whether an interval [a, b) meets it: what the tail attribution asks
   of every read against every GC pause or slow write. *)
let union ivs =
  let sorted = List.sort compare (List.filter (fun (lo, hi) -> hi > lo) ivs) in
  let merged =
    List.fold_left
      (fun acc (lo, hi) ->
        match acc with
        | (plo, phi) :: rest when lo <= phi -> (plo, max phi hi) :: rest
        | _ -> (lo, hi) :: acc)
      [] sorted
  in
  Array.of_list (List.rev merged)

let meets u a b =
  (* the first piece that ends after [a] *)
  let rec search lo hi = if lo >= hi then lo else
      let mid = (lo + hi) / 2 in
      if snd u.(mid) > a then search lo mid else search (mid + 1) hi
  in
  let k = search 0 (Array.length u) in
  k < Array.length u && fst u.(k) < b

type totals = { mutable self_ns : int; mutable wall_ns : int; mutable n : int }

type t = {
  domain : int;
  mutable kept : (int * span array) list;  (** the first [keep] traces *)
  mutable traces : int;
  by_name : (string, totals) Hashtbl.t;
}

(* Traces per domain written to the spans file; totals cover them all. *)
let keep = 2000

let create () =
  { domain = (Domain.self () :> int); kept = []; traces = 0; by_name = Hashtbl.create 16 }

let record t spans =
  let self = self_times spans in
  Array.iteri
    (fun i s ->
      let tot =
        match Hashtbl.find_opt t.by_name s.name with
        | Some tot -> tot
        | None ->
            let tot = { self_ns = 0; wall_ns = 0; n = 0 } in
            Hashtbl.replace t.by_name s.name tot;
            tot
      in
      tot.self_ns <- tot.self_ns + self.(i);
      tot.wall_ns <- tot.wall_ns + (s.t1 - s.t0);
      tot.n <- tot.n + 1)
    spans;
  if t.traces < keep then t.kept <- (t.traces, spans) :: t.kept;
  t.traces <- t.traces + 1

(* Totals of one span name over several recorders. *)
let total recorders name =
  List.fold_left
    (fun (self, wall, n) t ->
      match Hashtbl.find_opt t.by_name name with
      | Some tot -> (self + tot.self_ns, wall + tot.wall_ns, n + tot.n)
      | None -> (self, wall, n))
    (0, 0, 0) recorders

let write_json path recorders =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "[\n";
  let first = ref true in
  List.iter
    (fun t ->
      List.iter
        (fun (trace, spans) ->
          Array.iteri
            (fun i s ->
              if not !first then output_string oc ",\n";
              first := false;
              Printf.fprintf oc
                {|{"domain":%d,"trace":%d,"span":%d,"parent":%d,"name":"%s","start_ns":%d,"end_ns":%d}|}
                t.domain trace i s.parent s.name s.t0 s.t1)
            spans)
        (List.rev t.kept))
    recorders;
  output_string oc "\n]\n"
