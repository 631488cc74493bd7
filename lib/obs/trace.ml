type node = {
  id : int;
  name : string;
  mutable attrs : (string * string) list;
  mutable reads : int;
  mutable writes : int;
  mutable skips : int;
  mutable tuples : int;
  mutable batches : int;
  mutable started : float;
  mutable elapsed : float;
  mutable children : node list;
}

let on = ref false
let set_enabled b = on := b
let enabled () = !on

let dummy =
  {
    id = -1;
    name = "<disabled>";
    attrs = [];
    reads = 0;
    writes = 0;
    skips = 0;
    tuples = 0;
    batches = 0;
    started = 0.0;
    elapsed = 0.0;
    children = [];
  }

let is_real n = n != dummy
let result n = if is_real n then Some n else None

let next_id = ref 0

let fresh name =
  let id = !next_id in
  incr next_id;
  {
    id;
    name;
    attrs = [];
    reads = 0;
    writes = 0;
    skips = 0;
    tuples = 0;
    batches = 0;
    started = Metric.monotonic_s ();
    elapsed = 0.0;
    children = [];
  }

(* The current-span stack.  Innermost span at the head.

   The tracer is single-threaded by construction: spans are opened and
   closed only by the main domain.  Worker domains spawned for parallel
   scans charge their page I/O to a private [Io_stats] instead, and the
   executor notes the folded totals on the main domain after the join —
   so the note_* hot paths below simply ignore calls from other domains
   rather than corrupting the shared stack. *)
let main_domain = Domain.self ()
let on_main () = Domain.self () = main_domain

let stack : node list ref = ref []

let start name =
  if (not !on) || not (on_main ()) then dummy
  else begin
    let n = fresh name in
    (match !stack with
    | parent :: _ -> parent.children <- n :: parent.children
    | [] -> ());
    stack := n :: !stack;
    n
  end

let finish n =
  if is_real n then begin
    let now = Metric.monotonic_s () in
    (* Pop until (and including) [n]: anything above it was left open by
       an exception unwinding through [within]. *)
    let rec pop () =
      match !stack with
      | [] -> ()
      | top :: rest ->
          stack := rest;
          top.elapsed <- top.elapsed +. (now -. top.started);
          if top != n then pop ()
    in
    pop ()
  end

let within name f =
  let n = start name in
  Fun.protect ~finally:(fun () -> finish n) (fun () -> f n)

let branch parent name =
  if (not !on) || not (is_real parent) then dummy
  else begin
    let n = fresh name in
    n.elapsed <- 0.0;
    parent.children <- n :: parent.children;
    n
  end

let enter n =
  if is_real n then begin
    n.started <- Metric.monotonic_s ();
    stack := n :: !stack
  end

let exit n =
  if is_real n then
    match !stack with
    | top :: rest when top == n ->
        stack := rest;
        top.elapsed <- top.elapsed +. (Metric.monotonic_s () -. top.started)
    | _ -> ()

let unattributed f =
  if not (on_main ()) then f ()
  else begin
    let saved = !stack in
    stack := [];
    Fun.protect ~finally:(fun () -> stack := saved) f
  end

let current () = match !stack with n :: _ when on_main () -> n | _ -> dummy

let note_read () =
  if on_main () then
    match !stack with [] -> () | n :: _ -> n.reads <- n.reads + 1

let note_write () =
  if on_main () then
    match !stack with [] -> () | n :: _ -> n.writes <- n.writes + 1

let note_skip k =
  if on_main () then
    match !stack with [] -> () | n :: _ -> n.skips <- n.skips + k

let add_tuples n k = if is_real n then n.tuples <- n.tuples + k
let note_batch n = if is_real n then n.batches <- n.batches + 1
let set_attr n k v = if is_real n then n.attrs <- (k, v) :: n.attrs
let children n = List.rev n.children

(* One child span per parallel-scan partition, built after the Pool join
   from the worker's private Io_stats and its measured busy time.  The
   worker domain could not touch the span stack itself (the tracer is
   main-domain only), so the fold attributes its pages here instead of
   dumping them on the parent — making per-domain skew visible while the
   subtree still sums to the query's exact page total. *)
let note_partition ~parent ~index ~domain ~busy_s ~rows ~reads ~writes ~skips =
  if is_real parent then begin
    let n = fresh (Printf.sprintf "partition %d" index) in
    n.attrs <- [ ("domain", string_of_int domain) ];
    n.reads <- reads;
    n.writes <- writes;
    n.skips <- skips;
    n.tuples <- rows;
    n.elapsed <- busy_s;
    parent.children <- n :: parent.children
  end

let rec total_reads n =
  List.fold_left (fun acc c -> acc + total_reads c) n.reads n.children

let rec total_writes n =
  List.fold_left (fun acc c -> acc + total_writes c) n.writes n.children

let rec total_skips n =
  List.fold_left (fun acc c -> acc + total_skips c) n.skips n.children

let describe n =
  let attrs =
    match List.rev n.attrs with
    | [] -> ""
    | ls ->
        " "
        ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) ls)
  in
  let tuples = if n.tuples > 0 then Printf.sprintf ", %d tuples" n.tuples else "" in
  let batches =
    if n.batches > 0 then
      Printf.sprintf ", %d batch%s" n.batches (if n.batches = 1 then "" else "es")
    else ""
  in
  let skips =
    if n.skips > 0 then Printf.sprintf ", %d pruned" n.skips else ""
  in
  Printf.sprintf "%s%s  [%d in, %d out%s%s%s; %.2f ms]" n.name attrs n.reads
    n.writes skips tuples batches (1000.0 *. n.elapsed)

let render root =
  let buf = Buffer.create 256 in
  let rec go prefix child_prefix n =
    Buffer.add_string buf prefix;
    Buffer.add_string buf (describe n);
    Buffer.add_char buf '\n';
    let cs = children n in
    let last = List.length cs - 1 in
    List.iteri
      (fun i c ->
        if i = last then
          go (child_prefix ^ "`- ") (child_prefix ^ "   ") c
        else go (child_prefix ^ "|- ") (child_prefix ^ "|  ") c)
      cs
  in
  go "" "" root;
  let skips = total_skips root in
  let pruned =
    if skips > 0 then Printf.sprintf ", %d pages pruned" skips else ""
  in
  Buffer.add_string buf
    (Printf.sprintf "total: %d pages in, %d pages out%s\n" (total_reads root)
       (total_writes root) pruned);
  Buffer.contents buf

(* The executed-plan tree in the shared obs JSON form; [explain analyze]
   emits this next to the rendered text tree. *)
let rec to_json n =
  Json.Obj
    [
      ("name", Json.Str n.name);
      ("attrs", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) (List.rev n.attrs)));
      ("reads", Json.int n.reads);
      ("writes", Json.int n.writes);
      ("skips", Json.int n.skips);
      ("tuples", Json.int n.tuples);
      ("batches", Json.int n.batches);
      ("elapsed_s", Json.Num n.elapsed);
      ("children", Json.List (List.map to_json (children n)));
    ]

(* --- event log --- *)

type event = {
  seq : int;
  at : float;
  ev_name : string;
  ev_attrs : (string * string) list;
}

let event_capacity = 512
let ring : event option array = Array.make event_capacity None
let event_seq = ref 0

let event ?(attrs = []) name =
  if Metric.enabled () then begin
    let s = !event_seq in
    incr event_seq;
    ring.(s mod event_capacity) <-
      Some { seq = s; at = Metric.now_s (); ev_name = name; ev_attrs = attrs }
  end

let events () =
  Array.to_list ring
  |> List.filter_map Fun.id
  |> List.sort (fun a b -> compare a.seq b.seq)

let clear_events () =
  Array.fill ring 0 event_capacity None;
  event_seq := 0
