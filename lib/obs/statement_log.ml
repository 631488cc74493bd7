(* Structured statement log: one JSONL record per executed statement.

   The engine emits a record for every statement it runs (CLI, bench and
   tests all go through the engine, so they get logging for free); the
   database layer adds "notice" records for recovery work done at open.
   Disabled unless a sink is configured — via [set] (the CLI's --log) or
   the TDB_LOG environment variable — so the default hot path is one
   branch and the paper's numbers are untouched.

   Records are rendered with the shared obs Json codec and appended with
   a single [output_string] per line.  A slow-statement threshold
   (TDB_LOG_SLOW_MS) keeps only statements at or above the threshold;
   size-based rotation (TDB_LOG_MAX_BYTES) renames the live file to
   PATH.1 and starts over, bounding disk use for long sessions. *)

type sink = {
  path : string;
  mutable oc : out_channel;
  mutable size : int;
  max_bytes : int option;
  slow_s : float option;
}

type state = { mutable sink : sink option; mutable configured : bool }

let state = { sink = None; configured = false }
let lock = Mutex.create ()

(* Monotone statement/trace ids; atomic so worker-side notices (none
   today, but cheap insurance) cannot tear. *)
let seq = Atomic.make 0

let close_sink () =
  match state.sink with
  | None -> ()
  | Some s ->
      (try close_out s.oc with Sys_error _ -> ());
      state.sink <- None

(* A knob the caller leaves out takes its environment value
   (TDB_LOG_SLOW_MS, TDB_LOG_MAX_BYTES). *)
let open_sink ?slow_s ?max_bytes path =
  let env name parse = Option.bind (Sys.getenv_opt name) parse in
  let slow_s =
    match slow_s with
    | None ->
        Option.map (fun ms -> ms /. 1000.0)
          (env "TDB_LOG_SLOW_MS" float_of_string_opt)
    | s -> s
  in
  let max_bytes =
    match max_bytes with
    | None -> env "TDB_LOG_MAX_BYTES" int_of_string_opt
    | m -> m
  in
  close_sink ();
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  let size = out_channel_length oc in
  state.sink <- Some { path; oc; size; max_bytes; slow_s }

(* Lazily honour the environment the first time anyone asks, so every
   entry point (engine, CLI, bench) sees the same configuration without
   having to call an init function. *)
let ensure_configured () =
  if not state.configured then begin
    state.configured <- true;
    match Sys.getenv_opt "TDB_LOG" with
    | None | Some "" -> ()
    | Some path -> open_sink path
  end

let set ?slow_s ?max_bytes path =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      state.configured <- true;
      match path with
      | None -> close_sink ()
      | Some p -> open_sink ?slow_s ?max_bytes p)

let enabled () =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      ensure_configured ();
      state.sink <> None)

let path () =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      ensure_configured ();
      Option.map (fun s -> s.path) state.sink)

let rotate s =
  (try close_out s.oc with Sys_error _ -> ());
  (try Sys.rename s.path (s.path ^ ".1") with Sys_error _ -> ());
  s.oc <- open_out_gen [ Open_trunc; Open_creat; Open_wronly ] 0o644 s.path;
  s.size <- 0

let write_line s line =
  let len = String.length line + 1 in
  (match s.max_bytes with
  | Some cap when s.size > 0 && s.size + len > cap -> rotate s
  | _ -> ());
  output_string s.oc line;
  output_char s.oc '\n';
  flush s.oc;
  s.size <- s.size + len

let emit ?id ~always fields =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      ensure_configured ();
      match state.sink with
      | None -> ()
      | Some s ->
          let latency =
            List.assoc_opt "latency_s" fields
            |> Option.map (function Json.Num f -> f | _ -> 0.0)
          in
          let keep =
            always
            ||
            match (s.slow_s, latency) with
            | Some th, Some l -> l >= th
            | Some _, None -> true
            | None, _ -> true
          in
          if keep then begin
            (* A caller-provided id (the session layer's per-instance
               sequence) wins over the process-wide fallback counter, so
               multi-instance runs stay gap-free per database. *)
            let id =
              match id with
              | Some i -> i
              | None -> Atomic.fetch_and_add seq 1
            in
            let record =
              Json.Obj
                (("id", Json.Str (Printf.sprintf "S%d" id))
                :: ("ts", Json.Num (Metric.now_s ()))
                :: fields)
            in
            write_line s (Json.to_string record)
          end)

type entry = {
  id : int option;
  session : string option;
  epoch : int option;
  kind : string;
  text : string;
  outcome : string;
  error : string option;
  rows : int option;
  latency_s : float;
  reads : int;
  writes : int;
  journal_bytes : int;
}

let log e =
  emit ?id:e.id ~always:false
    [
      ("record", Json.Str "statement");
      ("kind", Json.Str e.kind);
      ("text", Json.Str e.text);
      ("outcome", Json.Str e.outcome);
      ("error", match e.error with None -> Json.Null | Some m -> Json.Str m);
      ("rows", match e.rows with None -> Json.Null | Some n -> Json.int n);
      ("latency_s", Json.Num e.latency_s);
      ("reads", Json.int e.reads);
      ("writes", Json.int e.writes);
      ("journal_bytes", Json.int e.journal_bytes);
      ( "session",
        match e.session with None -> Json.Null | Some s -> Json.Str s );
      ("epoch", match e.epoch with None -> Json.Null | Some n -> Json.int n);
    ]

let note ?(attrs = []) name =
  emit ~always:true
    (("record", Json.Str "notice")
    :: ("notice", Json.Str name)
    :: List.map (fun (k, v) -> (k, Json.Str v)) attrs)
