(** Structured statement log: one JSONL record per executed statement.

    Disabled by default.  A sink is configured either programmatically
    ([set], backing the CLI's [--log PATH]) or from the environment the
    first time the log is touched:

    - [TDB_LOG=PATH] — append records to PATH;
    - [TDB_LOG_SLOW_MS=N] — keep only statements taking >= N ms
      (notices are always kept);
    - [TDB_LOG_MAX_BYTES=N] — when the next record would push the file
      past N bytes, rename it to PATH.1 and start a fresh file.

    Each record is one line of JSON (shared obs codec) carrying a
    monotone id ("S0", "S1", ...) usable as a trace/request id, a
    wall-clock timestamp, and either a statement body (kind, text,
    outcome, error, rows, latency, page I/O and journal bytes) or a
    free-form notice (e.g. recovery work at database open).

    The engine emits statement records while holding its statement lock,
    so records are totally ordered; the module still carries its own
    mutex so notices from other entry points interleave safely. *)

val set : ?slow_s:float -> ?max_bytes:int -> string option -> unit
(** [set (Some path)] opens (appending) a log sink, replacing any
    configured one; [set None] closes it.  Overrides [TDB_LOG]; a knob
    left out takes its environment value ([TDB_LOG_SLOW_MS],
    [TDB_LOG_MAX_BYTES]), as a [TDB_LOG] sink does. *)

val enabled : unit -> bool
val path : unit -> string option

type entry = {
  id : int option;
      (** per-database-instance statement id (the session layer's
          gap-free sequence); [None] falls back to the process-wide
          counter *)
  session : string option;  (** issuing session's name, when known *)
  epoch : int option;
      (** snapshot epoch a read ran at, or the commit epoch a write
          published *)
  kind : string;  (** statement kind, e.g. "retrieve", "append" *)
  text : string;  (** the statement, pretty-printed *)
  outcome : string;  (** "rows" | "stored" | "modified" | "ack" | "error" *)
  error : string option;
  rows : int option;
  latency_s : float;
  reads : int;  (** pages read by this statement *)
  writes : int;  (** pages written by this statement *)
  journal_bytes : int;  (** intent-journal bytes appended *)
}

val log : entry -> unit
(** Append one statement record (subject to the slow threshold). *)

val note : ?attrs:(string * string) list -> string -> unit
(** Append a notice record (never filtered by the slow threshold). *)
