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

(* Spans open on any domain, so ids come from one atomic counter. *)
let next_id = Atomic.make 0

let fresh name =
  let id = Atomic.fetch_and_add next_id 1 in
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

(* The current-span stack of the calling domain, innermost span at the
   head.  Each domain has its own, so a statement traces exactly the
   pages its own domain reads, whichever domain runs it.  A domain
   spawned for parallel scan partitions starts with an empty stack: its
   note_* calls are no-ops, and the executor attributes the worker's
   private [Io_stats] after the join (see [note_partition]). *)
let stack_key = Domain.DLS.new_key (fun () -> ref [])
let stack () : node list ref = Domain.DLS.get stack_key

let start name =
  let st = stack () in
  match !st with
  | [] -> dummy
  | parent :: _ as spans ->
      let n = fresh name in
      parent.children <- n :: parent.children;
      st := n :: spans;
      n

(* The hidden root only gives the statement's spans a parent; the
   caller keeps the subtree it asked for ([result] of its own span). *)
let traced f =
  let st = stack () in
  match !st with
  | _ :: _ -> f ()
  | [] ->
      st := [ fresh "traced" ];
      Fun.protect ~finally:(fun () -> st := []) f

let finish n =
  if is_real n then begin
    let now = Metric.monotonic_s () in
    let stack = stack () in
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
  if not (is_real parent) then dummy
  else begin
    let n = fresh name in
    n.elapsed <- 0.0;
    parent.children <- n :: parent.children;
    n
  end

let enter n =
  if is_real n then begin
    n.started <- Metric.monotonic_s ();
    let stack = stack () in
    stack := n :: !stack
  end

let exit n =
  if is_real n then
    let stack = stack () in
    match !stack with
    | top :: rest when top == n ->
        stack := rest;
        top.elapsed <- top.elapsed +. (Metric.monotonic_s () -. top.started)
    | _ -> ()

let unattributed f =
  let stack = stack () in
  match !stack with
  | [] -> f ()
  | saved ->
      stack := [];
      Fun.protect ~finally:(fun () -> stack := saved) f

let current () = match !(stack ()) with n :: _ -> n | [] -> dummy

let note_read () =
  match !(stack ()) with [] -> () | n :: _ -> n.reads <- n.reads + 1

let note_write () =
  match !(stack ()) with [] -> () | n :: _ -> n.writes <- n.writes + 1

let note_skip k =
  match !(stack ()) with [] -> () | n :: _ -> n.skips <- n.skips + k

let add_tuples n k = if is_real n then n.tuples <- n.tuples + k
let note_batch n = if is_real n then n.batches <- n.batches + 1
let children n = List.rev n.children

(* One child span per parallel-scan partition, built after the Pool join
   from the worker's private Io_stats and its measured busy time.  The
   worker domain's own span stack is empty, so the fold attributes its
   pages here instead of dumping them on the parent — making per-domain
   skew visible while the subtree still sums to the query's exact page total. *)
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
(* Disk checksum failures, fault injections and journal recovery emit
   events from reader and worker domains too: one atomic counter keeps
   every event's [seq] distinct. *)
let event_seq = Atomic.make 0

let event ?(attrs = []) name =
  if Metric.enabled () then begin
    let s = Atomic.fetch_and_add event_seq 1 in
    ring.(s mod event_capacity) <-
      Some { seq = s; at = Metric.now_s (); ev_name = name; ev_attrs = attrs }
  end

let events () =
  Array.to_list ring
  |> List.filter_map Fun.id
  |> List.sort (fun a b -> compare a.seq b.seq)

let clear_events () =
  Array.fill ring 0 event_capacity None;
  Atomic.set event_seq 0
