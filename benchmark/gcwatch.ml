(* GC pauses of this process, read from the runtime's event ring
   ([Runtime_events], OCaml 5.1).  A pause is an outermost minor
   collection, major slice or stop-the-world section on one domain's
   ring; timestamps are the same monotonic nanoseconds as
   [Spans.now_ns].  Ring numbers are not domain ids, so each measuring
   domain announces its id on its own ring. *)

module Re = Runtime_events

type pause = { ring : int; p0 : int; p1 : int }

type t = {
  cursor : Re.cursor;
  callbacks : Re.Callbacks.t;
  pauses : pause list ref;
  rings : (int, int) Hashtbl.t;  (** domain id -> ring *)
  lost : int ref;  (** events overwritten before they were read *)
}

type Re.User.tag += Domain_id

let domain_event = Re.User.register "tdbbench.domain" Domain_id Re.Type.int

(* Call on each measuring domain once the watch has started. *)
let announce () = Re.User.write domain_event (Domain.self () :> int)

let pausing = function
  | Re.EV_MINOR | Re.EV_MAJOR_SLICE | Re.EV_STW_LEADER | Re.EV_STW_HANDLER -> true
  | _ -> false

let start () =
  Re.start ();
  Re.resume ();
  let pauses = ref [] and lost = ref 0 and depth = Hashtbl.create 4 in
  let rings = Hashtbl.create 4 in
  let ns ts = Int64.to_int (Re.Timestamp.to_int64 ts) in
  let runtime_begin ring ts phase =
    if pausing phase then
      match Hashtbl.find_opt depth ring with
      | Some (d, p0) -> Hashtbl.replace depth ring (d + 1, p0)
      | None -> Hashtbl.replace depth ring (1, ns ts)
  in
  let runtime_end ring ts phase =
    if pausing phase then
      match Hashtbl.find_opt depth ring with
      | Some (1, p0) ->
          Hashtbl.remove depth ring;
          pauses := { ring; p0; p1 = ns ts } :: !pauses
      | Some (d, p0) -> Hashtbl.replace depth ring (d - 1, p0)
      | None -> ()
  in
  let lost_events _ n =
    Hashtbl.reset depth;
    lost := !lost + n
  in
  {
    cursor = Re.create_cursor None;
    callbacks =
      Re.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ()
      |> Re.Callbacks.add_user_event Re.Type.int (fun ring _ _ id ->
             Hashtbl.replace rings id ring);
    pauses;
    rings;
    lost;
  }

(* Drain the ring; call often enough that it never wraps. *)
let poll t = ignore (Re.read_poll t.cursor t.callbacks None)

let stop t =
  poll t;
  Re.pause ();
  Re.free_cursor t.cursor;
  if !(t.lost) > 0 then
    Printf.eprintf "tdbbench: %d runtime events lost; GC pause metrics undercount\n" !(t.lost);
  !(t.pauses)

(* [in_pause t pauses ~domain a b]: whether the interval [a, b) of a
   statement on [domain] overlaps one of that domain's pauses (any
   domain's, if it never announced). *)
let in_pause t pauses =
  let union_of keep =
    Spans.union
      (List.filter_map (fun p -> if keep p.ring then Some (p.p0, p.p1) else None) pauses)
  in
  let any = union_of (fun _ -> true) in
  let by_domain = Hashtbl.create 4 in
  Hashtbl.iter
    (fun domain ring -> Hashtbl.replace by_domain domain (union_of (( = ) ring)))
    t.rings;
  fun ~domain a b ->
    Spans.meets (Option.value (Hashtbl.find_opt by_domain domain) ~default:any) a b
