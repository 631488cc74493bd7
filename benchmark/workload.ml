(* The four workloads: set-up, the measured closed loops, the result
   checks and the metrics. *)

open Model

type spec = {
  name : string;
  rows : int;  (** rows per relation at load *)
  rounds : int;  (** whole-relation replace rounds at set-up *)
  file_backed : bool;  (** on disk with the journal, else in memory *)
  split : bool;  (** writes and reads on two sessions, two domains *)
  read_tail : float;
  write_tail : float;
      (** tail percentiles, low enough that a run leaves ten samples past them *)
  stream : seed:int -> rows:int -> tables:(which -> row array) -> unit -> Gen.op;
}

(* Why each workload is here is in README.md and BENCHMARK.json. *)
let specs =
  [
    {
      name = "paper-uc15";
      rows = 1024;
      rounds = 15;
      file_backed = false;
      split = false;
      read_tail = 0.95;
      write_tail = 0.9;
      stream = (fun ~seed ~rows ~tables:_ -> Gen.paper ~seed ~rows);
    };
    {
      name = "keyed-rw";
      rows = 10240;
      rounds = 1;
      file_backed = true;
      split = false;
      read_tail = 0.99;
      write_tail = 0.95;
      stream = (fun ~seed ~rows ~tables:_ -> Gen.keyed ~seed ~rows);
    };
    {
      name = "keyed-rw-sessions";
      rows = 10240;
      rounds = 1;
      file_backed = true;
      split = true;
      read_tail = 0.99;
      write_tail = 0.95;
      stream = (fun ~seed ~rows ~tables:_ -> Gen.keyed ~seed ~rows);
    };
    {
      name = "scan-s20";
      rows = 20480;
      rounds = 1;
      file_backed = false;
      split = false;
      read_tail = 0.95;
      write_tail = 0.9;
      stream = Gen.scan;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) specs

(* --- work files --- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

let fail fmt = Printf.ksprintf failwith fmt

(* --- set-up --- *)

type instance = { db : Adapter.db; model : Model.t; dir : string option }

let discard i =
  Adapter.close_db i.db;
  Option.iter rm_rf i.dir

(* Create, load, index and evolve both relations through one session;
   returns the instance and the seconds spent inside the engine. *)
let setup ~rounds ~tables ~tsv ~dir =
  let db = Adapter.open_db ?dir ~start:(Lazy.force Gen.evolution_start) () in
  let s = Adapter.session db "setup" in
  let model = Model.of_tables ~h:(tables H) ~i:(tables I) in
  let spent = ref 0 in
  let run text =
    let t0 = Spans.now_ns () in
    let r = Adapter.execute s text in
    spent := !spent + (Spans.now_ns () - t0);
    match r with
    | Ok o -> o
    | Error e -> fail "set-up statement failed: %s\n  %s" e text
  in
  List.iter
    (fun w ->
      let rel = rel_name w in
      ignore
        (run
           (Printf.sprintf
              "create persistent interval %s (id = i4, amount = i4, seq = i4, \
               string = c96)"
              rel));
      ignore (run (Printf.sprintf "range of %s is %s" (var w) rel));
      ignore (run (Printf.sprintf "copy %s from \"%s\"" rel (tsv w))))
    [ H; I ];
  ignore (run "modify temporal_h to hash on id where fillfactor = 100");
  ignore (run "modify temporal_i to isam on id where fillfactor = 100");
  for _ = 1 to rounds do
    List.iter
      (fun w ->
        let wr = Replace_all w in
        match run (write_text wr) with
        | Adapter.Modified { matched } ->
            let want = Model.apply model ~now:(Adapter.clock s) wr in
            if matched <> want then
              fail "set-up: %s matched %d rows, expected %d" (write_text wr)
                matched want
        | _ -> fail "set-up: %s returned no update count" (write_text wr))
      [ H; I ]
  done;
  Adapter.close_session s;
  ({ db; model; dir }, float_of_int !spent /. 1e9)

(* --- clients: one session in one closed loop --- *)

type client = {
  session : Adapter.session;
  domain : int;
  spans : Spans.t option;  (** [Some] in the traced run *)
  read_ns : float Stats.buf;
  write_ns : float Stats.buf;
  mutable attempted : int;
  mutable busy_ns : int;
  mutable pages : int;
  mutable rows : int;
  mutable join_rows : int;
  mutable errors : int;
  mutable wrong : int;
  checks : int Stats.buf;
      (** per read, to check after the run: pinned stamp, rows, digest *)
  (* traced run only *)
  read_iv : float Stats.buf;  (** start, end of each read *)
  write_iv : float Stats.buf;
  mutable parse_words : float;
  mutable read_exec_ns : int;
  kind_ns : (string, int * int) Hashtbl.t;  (** execute time, count *)
}

let client db name ~trace =
  {
    session = Adapter.session db name;
    domain = (Domain.self () :> int);
    spans = (if trace then Some (Spans.create ()) else None);
    read_ns = Stats.buf 0.0;
    write_ns = Stats.buf 0.0;
    attempted = 0;
    busy_ns = 0;
    pages = 0;
    rows = 0;
    join_rows = 0;
    errors = 0;
    wrong = 0;
    checks = Stats.buf 0;
    read_iv = Stats.buf 0.0;
    write_iv = Stats.buf 0.0;
    parse_words = 0.0;
    read_exec_ns = 0;
    kind_ns = Hashtbl.create 4;
  }

let kind = function
  | Gen.Read _ -> "retrieve"
  | Gen.Write (Replace_key _ | Replace_all _) -> "replace"
  | Gen.Write (Append _) -> "append"

let complain c fmt =
  Printf.ksprintf
    (fun msg -> if c.errors + c.wrong <= 5 then prerr_endline ("tdbbench: " ^ msg))
    fmt

(* The traced form of one statement: the execute call split into the
   layers it crosses, each step a span under the statement's root.
   Semck and plan run once more on their own to time them: estimates of
   work the execute call repeats inside. *)
let traced c sp op text =
  let span name parent t0 t1 = { Spans.name; parent; t0; t1 } in
  let r0 = Spans.now_ns () in
  let w0 = Gc.minor_words () in
  let p0 = Spans.now_ns () in
  let parsed = Adapter.parse text in
  let p1 = Spans.now_ns () in
  c.parse_words <- c.parse_words +. (Gc.minor_words () -. w0);
  match parsed with
  | Error e ->
      let r1 = Spans.now_ns () in
      Spans.record sp [| span "statement" (-1) r0 r1; span "tquel.parse" 0 p0 p1 |];
      (Error e, r0, r1)
  | Ok stmt ->
      let s0 = Spans.now_ns () in
      ignore (Adapter.semck c.session stmt);
      let s1 = Spans.now_ns () in
      let is_read = Gen.is_read op in
      if is_read then Adapter.plan c.session stmt;
      let q1 = Spans.now_ns () in
      let result = Adapter.execute_parsed c.session stmt in
      let x1 = Spans.now_ns () in
      let steps =
        [ span "tquel.parse" 0 p0 p1; span "tquel.semck" 0 s0 s1 ]
        @ (if is_read then [ span "query.plan" 0 s1 q1 ] else [])
        @ [ span "core.execute" 0 q1 x1 ]
      in
      Spans.record sp (Array.of_list (span "statement" (-1) r0 x1 :: steps));
      if is_read then
        c.read_exec_ns <- c.read_exec_ns + (x1 - q1) - (s1 - s0) - (q1 - s1);
      let k = kind op in
      let ns, n = Option.value (Hashtbl.find_opt c.kind_ns k) ~default:(0, 0) in
      Hashtbl.replace c.kind_ns k (ns + (x1 - q1), n + 1);
      (result, r0, x1)

let step c ~model op =
  let text = Gen.text op in
  let result, t0, t1 =
    match c.spans with
    | Some sp -> traced c sp op text
    | None ->
        let t0 = Spans.now_ns () in
        let r = Adapter.execute c.session text in
        (r, t0, Spans.now_ns ())
  in
  c.attempted <- c.attempted + 1;
  c.busy_ns <- c.busy_ns + (t1 - t0);
  let ns = float_of_int (t1 - t0) in
  let interval buf =
    if c.spans <> None then begin
      Stats.push buf (float_of_int t0);
      Stats.push buf (float_of_int t1)
    end
  in
  match (op, result) with
  | Gen.Read q, Ok (Adapter.Rows { tuples; pages }) ->
      Stats.push c.read_ns ns;
      interval c.read_iv;
      let d = Model.digest_tuples q tuples in
      c.pages <- c.pages + pages;
      c.rows <- c.rows + d.rows;
      if Model.joins q then c.join_rows <- c.join_rows + d.rows;
      Stats.push c.checks (Adapter.clock c.session);
      Stats.push c.checks d.rows;
      Stats.push c.checks d.sum
  | Gen.Write w, Ok (Adapter.Modified { matched }) ->
      Stats.push c.write_ns ns;
      interval c.write_iv;
      let want = Model.apply model ~now:(Adapter.clock c.session) w in
      if matched <> want then begin
        c.wrong <- c.wrong + 1;
        complain c "%s matched %d rows, expected %d" text matched want
      end
  | _, Error e ->
      c.errors <- c.errors + 1;
      complain c "%s failed: %s" text e
  | _, Ok _ ->
      c.wrong <- c.wrong + 1;
      complain c "%s returned the wrong kind of result" text

(* Reads are checked once the run is over, against the reference as of
   the stamp each one pinned.  Their queries come from a fresh copy of
   the seeded stream: a client's reads are the stream's reads, in
   order. *)
let verify c model ~stream =
  let next = stream () in
  let rec next_query () =
    match next () with Gen.Read q -> q | Gen.Write _ -> next_query ()
  in
  let log = c.checks.Stats.data in
  for k = 0 to (c.checks.Stats.len / 3) - 1 do
    let q = next_query () in
    let stamp = log.(3 * k) in
    let got = { rows = log.((3 * k) + 1); sum = log.((3 * k) + 2) } in
    let want = Model.eval model ~now:stamp q in
    if got <> want then begin
      c.wrong <- c.wrong + 1;
      complain c "%s as of stamp %d returned %d rows, expected %d" (query_text q) stamp
        got.rows want.rows
    end
  done

type budget = Seconds of float | Statements of int

let until budget =
  match budget with
  | Seconds s ->
      let deadline = Spans.now_ns () + int_of_float (s *. 1e9) in
      fun () -> Spans.now_ns () < deadline
  | Statements n ->
      let left = ref n in
      fun () ->
        decr left;
        !left >= 0

(* The measured phase.  One session, or a writer session on this domain
   and a reader session on a second domain that reads until the writer
   is done.  [tick] runs on this domain after each of its statements. *)
let measure spec inst ~seed ~rows ~tables ~budget ~trace ~tick ~announce =
  let stream () = spec.stream ~seed ~rows ~tables in
  let go c next more =
    while more () do
      step c ~model:inst.model (next ());
      tick ()
    done
  in
  if not spec.split then begin
    let c = client inst.db "s1" ~trace in
    go c (stream ()) (until budget);
    [ c ]
  end
  else begin
    let writer_done = Atomic.make false in
    let reader =
      Domain.spawn (fun () ->
          let c = client inst.db "reader" ~trace in
          announce ();
          let next = Gen.only Gen.is_read (stream ()) in
          let first = ref true in
          while !first || not (Atomic.get writer_done) do
            first := false;
            step c ~model:inst.model (next ())
          done;
          c)
    in
    let w = client inst.db "writer" ~trace in
    let writes =
      try Ok (go w (Gen.only (fun op -> not (Gen.is_read op)) (stream ())) (until budget))
      with e -> Error e
    in
    Atomic.set writer_done true;
    let r = Domain.join reader in
    Result.iter_error raise writes;
    [ w; r ]
  end

(* --- metrics --- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  notes : string list;  (** sample counts and ratio bases *)
}

let cat bufs = Array.concat (List.map Stats.to_array bufs)
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let ms ns = ns /. 1e6

(* Sum over clients of each client's own rate: a client's count over
   its time inside engine calls. *)
let rate clients count =
  List.fold_left
    (fun acc c ->
      if c.busy_ns = 0 then acc
      else acc +. (float_of_int (count c) /. (float_of_int c.busy_ns /. 1e9)))
    0.0 clients

let latency_notes name ~p samples =
  let n = Array.length samples in
  Printf.sprintf "%s: p%g of %d samples, %d beyond%s" name (100.0 *. p) n
    (Stats.beyond ~p n)
    (if Stats.tail_supported ~p n then "" else " (too few for a tail)")

let end_to_end spec clients ~setup_s ~stored_pages ~stored_versions =
  let reads = cat (List.map (fun c -> c.read_ns) clients) in
  let writes = cat (List.map (fun c -> c.write_ns) clients) in
  let n_reads = Array.length reads in
  let pct a p = if Array.length a = 0 then 0.0 else ms (Stats.percentile a p) in
  let heap = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
  ( [
      ("setup_s", Stats.median setup_s, "s");
      ( "stmts_per_s",
        rate clients (fun c -> c.read_ns.Stats.len + c.write_ns.Stats.len),
        "1/s" );
      ("read_p50_ms", pct reads 0.5, "ms");
      ("read_tail_ms", pct reads spec.read_tail, "ms");
      ("write_p50_ms", pct writes 0.5, "ms");
      ("write_tail_ms", pct writes spec.write_tail, "ms");
      ("writes_per_s", rate clients (fun c -> c.write_ns.Stats.len), "1/s");
      ( "input_pages_per_stmt",
        ratio (List.fold_left (fun a c -> a + c.pages) 0 clients) n_reads,
        "pages" );
      ( "bytes_per_user_byte",
        float_of_int (stored_pages * Adapter.page_bytes)
        /. float_of_int (max 1 stored_versions * 108),
        "ratio" );
      ("peak_heap_mb", float_of_int heap /. 1048576.0, "MB");
    ],
    [
      latency_notes "read_tail_ms" ~p:spec.read_tail reads;
      latency_notes "write_tail_ms" ~p:spec.write_tail writes;
      Printf.sprintf "setup_s: median of %d set-ups" (Array.length setup_s);
      Printf.sprintf "bytes_per_user_byte: %d pages of %d bytes over %d versions of 108 user bytes"
        stored_pages Adapter.page_bytes stored_versions;
    ] )

(* p99 of the chain-length histogram over the run, from the cumulative
   bucket counts at its start and end. *)
let chain_p99 (c0 : Adapter.counters) (c1 : Adapter.counters) =
  let at buckets le =
    List.fold_left (fun acc (b, n) -> if b <= le then n else acc) 0 buckets
  in
  let delta le = at c1.chain_buckets le - at c0.chain_buckets le in
  let total = delta infinity in
  if total = 0 then 0.0
  else
    match
      List.find_opt
        (fun (le, _) -> float_of_int (delta le) >= 0.99 *. float_of_int total)
        c1.chain_buckets
    with
    | Some (le, _) when Float.is_finite le -> le
    | _ -> 0.0

let per_layer spec clients ~(c0 : Adapter.counters) ~(c1 : Adapter.counters) ~gc0 ~gc1
    ~pauses ~scan ~in_pause =
  let recorders = List.filter_map (fun c -> c.spans) clients in
  let sum f = List.fold_left (fun a c -> a + f c) 0 clients in
  let n_reads = sum (fun c -> c.read_ns.Stats.len) in
  let n_writes = sum (fun c -> c.write_ns.Stats.len) in
  let n = n_reads + n_writes in
  let us_per total k = if k = 0 then 0.0 else float_of_int total /. 1e3 /. float_of_int k in
  let wall name = let _, w, _ = Spans.total recorders name in w in
  let kind_us k =
    let ns, cnt =
      List.fold_left
        (fun (ns, cnt) c ->
          let a, b = Option.value (Hashtbl.find_opt c.kind_ns k) ~default:(0, 0) in
          (ns + a, cnt + b))
        (0, 0) clients
    in
    us_per ns cnt
  in
  let d f = f c1 - f c0 in
  let hits = d (fun c -> c.Adapter.pool_hits) and misses = d (fun c -> c.Adapter.pool_misses) in
  let page_reads = d (fun c -> c.Adapter.page_reads) in
  let skipped = d (fun c -> c.Adapter.prune_skipped) in
  let waits = d (fun c -> c.Adapter.writer_waits) in
  (* Tail statements: reads at or past the workload's tail percentile. *)
  let reads_iv =
    List.concat_map
      (fun c ->
        let iv = Stats.to_array c.read_iv in
        List.init (Array.length iv / 2) (fun k ->
            (c.domain, int_of_float iv.(2 * k), int_of_float iv.((2 * k) + 1))))
      clients
  in
  let tail =
    let durations = Array.of_list (List.map (fun (_, a, b) -> float_of_int (b - a)) reads_iv) in
    if Array.length durations = 0 then []
    else
      let cut = Stats.percentile durations spec.read_tail in
      List.filter (fun (_, a, b) -> float_of_int (b - a) >= cut) reads_iv
  in
  let share_of l p = ratio (List.length (List.filter p l)) (List.length l) in
  let in_pause (domain, a, b) = in_pause ~domain a b in
  (* Slow writes: at or past the workload's write tail percentile. *)
  let slow_writes =
    let all =
      List.concat_map
        (fun c ->
          let iv = Stats.to_array c.write_iv in
          List.init (Array.length iv / 2) (fun k ->
              (int_of_float iv.(2 * k), int_of_float iv.((2 * k) + 1))))
        clients
    in
    if all = [] then [||]
    else
      let cut =
        Stats.percentile
          (Array.of_list (List.map (fun (a, b) -> float_of_int (b - a)) all))
          spec.write_tail
      in
      Spans.union (List.filter (fun (a, b) -> float_of_int (b - a) >= cut) all)
  in
  let during_write (_, a, b) = Spans.meets slow_writes a b in
  let pause_ns = List.map (fun p -> p.Gcwatch.p1 - p.Gcwatch.p0) pauses in
  let scan_pages, scan_ns = scan in
  let root_self, root_wall, _ = Spans.total recorders "statement" in
  [
    ("tquel.parse_us", us_per (wall "tquel.parse") n, "us");
    ("tquel.semck_us", us_per (wall "tquel.semck") n, "us");
    ( "tquel.alloc_words",
      List.fold_left (fun a c -> a +. c.parse_words) 0.0 clients
      /. float_of_int (max 1 n),
      "words" );
    ("query.plan_us", us_per (wall "query.plan") n_reads, "us");
    ("query.exec_us", us_per (sum (fun c -> c.read_exec_ns)) n_reads, "us");
    ("query.pages_per_row", ratio (sum (fun c -> c.pages)) (sum (fun c -> c.rows)), "pages");
    ( "query.tjoin_pairs_per_row",
      ratio (d (fun c -> c.Adapter.tjoin_pairs)) (sum (fun c -> c.join_rows)),
      "pairs" );
    ("core.stmt_us.retrieve", kind_us "retrieve", "us");
    ("core.stmt_us.replace", kind_us "replace", "us");
    ("core.stmt_us.append", kind_us "append", "us");
    ( "session.writer_wait_ms",
      (if waits = 0 then 0.0
       else 1000.0 *. (c1.Adapter.writer_wait_s -. c0.Adapter.writer_wait_s) /. float_of_int waits),
      "ms" );
    ("storage.page_reads_per_stmt", ratio page_reads n, "pages");
    ("storage.page_writes_per_write", ratio (d (fun c -> c.Adapter.page_writes)) n_writes, "pages");
    ("storage.pool_hit_ratio", ratio hits (hits + misses), "ratio");
    ("storage.pool_evictions_per_stmt", ratio (d (fun c -> c.Adapter.pool_evictions)) n, "count");
    ("storage.prune_skip_ratio", ratio skipped (skipped + page_reads), "ratio");
    ("storage.fence_checks_per_stmt", ratio (d (fun c -> c.Adapter.fence_checks)) n, "count");
    ("storage.chain_length_p99", chain_p99 c0 c1, "pages");
    ("storage.overflow_pages", float_of_int (d (fun c -> c.Adapter.overflow_pages)), "pages");
    ("storage.scan_ns_per_page", ratio scan_ns scan_pages, "ns");
    ( "storage.journal_bytes_per_write",
      ratio (d (fun c -> c.Adapter.journal_bytes)) n_writes,
      "bytes" );
    ( "storage.journal_fsyncs_per_write",
      ratio (d (fun c -> c.Adapter.journal_fsyncs)) n_writes,
      "count" );
    ("storage.disk_fsyncs_per_write", ratio (d (fun c -> c.Adapter.disk_fsyncs)) n_writes, "count");
    ( "gc.minor_words_per_stmt",
      (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int (max 1 n),
      "words" );
    ( "gc.major_words_per_stmt",
      (gc1.Gc.major_words -. gc0.Gc.major_words) /. float_of_int (max 1 n),
      "words" );
    ( "gc.major_collections",
      float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections),
      "count" );
    ("gc.pause_ms_total", ms (float_of_int (List.fold_left ( + ) 0 pause_ns)), "ms");
    ("gc.pause_max_ms", ms (float_of_int (List.fold_left max 0 pause_ns)), "ms");
    ("tail.gc_share", share_of tail in_pause, "ratio");
    ( "tail.writer_overlap_share",
      (if spec.split then share_of tail during_write else 0.0),
      "ratio" );
    ("trace.unaccounted_frac", ratio root_self root_wall, "ratio");
    ( "trace.overhead_frac",
      ratio root_wall (wall "tquel.parse" + wall "core.execute") -. 1.0,
      "ratio" );
  ],
  [
    Printf.sprintf "storage.pool_hit_ratio: %d hits over %d pool accesses" hits
      (hits + misses);
    Printf.sprintf "storage.prune_skip_ratio: %d pages skipped over %d considered"
      skipped (skipped + page_reads);
    Printf.sprintf "query.pages_per_row: %d pages over %d rows" (sum (fun c -> c.pages))
      (sum (fun c -> c.rows));
    Printf.sprintf
      "tail.*: %d tail reads at p%g; over all %d reads, %.3f overlap a GC pause \
       and %.3f a slow write"
      (List.length tail) (100.0 *. spec.read_tail) (List.length reads_iv)
      (share_of reads_iv in_pause)
      (if spec.split then share_of reads_iv during_write else 0.0);
    "tquel.semck_us, query.plan_us, query.exec_us: estimates (the execute call \
     repeats semck and plan)";
  ]

(* --- one run --- *)

type options = {
  seed : int;
  rows : int;
  rounds : int;
  setups : int;
  budget : budget;
  trace : bool;
  work : string;  (** work directory, removed afterwards *)
  spans_file : string option;
}

let run spec o =
  mkdir_p o.work;
  Fun.protect ~finally:(fun () -> rm_rf o.work) @@ fun () ->
  let tables =
    let h = Gen.table ~seed:o.seed ~rows:o.rows H and i = Gen.table ~seed:o.seed ~rows:o.rows I in
    function H -> h | I -> i
  in
  let tsv w = Filename.concat o.work (var w ^ ".tsv") in
  List.iter (fun w -> Gen.write_tsv (tsv w) (tables w)) [ H; I ];
  let setup_s = Array.make o.setups 0.0 in
  let inst = ref None in
  for k = 0 to o.setups - 1 do
    Option.iter discard !inst;
    inst := None;
    Gc.full_major ();
    let dir =
      if spec.file_backed then Some (Filename.concat o.work (Printf.sprintf "db%d" k))
      else None
    in
    let i, s = setup ~rounds:o.rounds ~tables ~tsv ~dir in
    setup_s.(k) <- s;
    inst := Some i
  done;
  let inst = Option.get !inst in
  Fun.protect ~finally:(fun () -> discard inst) @@ fun () ->
  let c0 = Adapter.counters () and gc0 = Gc.quick_stat () in
  let watch = if o.trace then Some (Gcwatch.start ()) else None in
  let tick, announce =
    match watch with
    | Some w -> ((fun () -> Gcwatch.poll w), Gcwatch.announce)
    | None -> (ignore, ignore)
  in
  announce ();
  let clients =
    measure spec inst ~seed:o.seed ~rows:o.rows ~tables ~budget:o.budget ~trace:o.trace ~tick
      ~announce
  in
  let pauses = match watch with Some w -> Gcwatch.stop w | None -> [] in
  let c1 = Adapter.counters () and gc1 = Gc.quick_stat () in
  List.iter (fun c -> Adapter.close_session c.session) clients;
  List.iter
    (fun c -> verify c inst.model ~stream:(fun () -> spec.stream ~seed:o.seed ~rows:o.rows ~tables))
    clients;
  (* The stored versions must be exactly the reference's. *)
  let stored = List.map (fun w -> (w, Adapter.stored inst.db (rel_name w))) [ H; I ] in
  let stored_wrong =
    List.length
      (List.filter
         (fun (w, (_, tuples)) ->
           let got =
             List.fold_left (fun d t -> Model.add d 8 (Adapter.int_field t)) Model.empty tuples
           in
           let want = Model.stored_digest (rel inst.model w) in
           if got <> want then
             Printf.eprintf "tdbbench: %s stores %d versions, expected %d%s\n" (rel_name w)
               got.rows want.rows
               (if got.rows = want.rows then " (with other values)" else "");
           got <> want)
         stored)
  in
  let stored_pages = List.fold_left (fun a (_, (p, _)) -> a + p) 0 stored in
  let stored_versions = List.fold_left (fun a (_, (_, t)) -> a + List.length t) 0 stored in
  let sum f = List.fold_left (fun a c -> a + f c) 0 clients in
  let attempted = sum (fun c -> c.attempted) in
  let failed = sum (fun c -> c.errors + c.wrong) + stored_wrong in
  let metrics, notes =
    if o.trace then begin
      let scan =
        List.fold_left
          (fun (p, ns) w ->
            let p', ns' = Adapter.cold_scan inst.db (rel_name w) ~now_ns:Spans.now_ns in
            (p + p', ns + ns'))
          (0, 0) [ H; I ]
      in
      Option.iter
        (fun path -> Spans.write_json path (List.filter_map (fun c -> c.spans) clients))
        o.spans_file;
      per_layer spec clients ~c0 ~c1 ~gc0 ~gc1 ~pauses ~scan
        ~in_pause:(Gcwatch.in_pause (Option.get watch) pauses)
    end
    else end_to_end spec clients ~setup_s ~stored_pages ~stored_versions
  in
  { correct = failed = 0; attempted; failed; metrics; notes }
