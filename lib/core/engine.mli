(** The engine: parse, check and execute TQuel against a database.

    This is the library's main entry point:

    {[
      let db = Result.get_ok (Tdb_core.Database.create ()) in
      let _ = Tdb_core.Engine.execute db {|
        create persistent interval emp (name = c20, salary = i4)
        range of e is emp
        append to emp (name = "ahn", salary = 30000)
        retrieve (e.name, e.salary) when e overlap "now"
      |}
    ]} *)

type outcome =
  | Rows of {
      schema : Tdb_relation.Schema.t;
      tuples : Tdb_relation.Tuple.t list;
      io : Tdb_query.Executor.io_summary;
      plan : Tdb_query.Plan.t;
      trace : Tdb_obs.Trace.node option;
      parallel : string;  (** the admission the compiled tree took *)
      workers : int;  (** the width the compiled tree took *)
    }  (** a displayed [retrieve] *)
  | Stored of {
      relation : string;
      count : int;
      io : Tdb_query.Executor.io_summary;
      plan : Tdb_query.Plan.t;
      trace : Tdb_obs.Trace.node option;
      parallel : string;  (** the admission the compiled tree took *)
      workers : int;  (** the width the compiled tree took *)
    }  (** [retrieve into] *)
  | Modified of {
      matched : int;
      inserted : int;
      trace : Tdb_obs.Trace.node option;
      workers : int;  (** see {!Tdb_query.Update_executor.counts} *)
    }
      (** [append] / [delete] / [replace] *)
  | Ack of string  (** DDL and session statements *)

(** {1 Execution}

    A statement compiles with the [?config] it is given (default
    {!Tdb_query.Executor.default_config}); [?trace] (default [false])
    asks for its span tree in the outcome. *)

val execute_statement :
  ?config:Tdb_query.Executor.config ->
  ?trace:bool ->
  Database.t ->
  Tdb_tquel.Ast.statement ->
  (outcome, string) result
(** Checks the statement against the database, then runs it.  Modification
    statements advance the database clock by one second before executing,
    so transaction times are strictly increasing.  Statements are
    serialized under an engine-wide lock: concurrent callers interleave at
    statement granularity; parallelism lives inside a statement, up to
    [config.workers] domains. *)

(** {1 Statement classification and isolation} *)

val mutates : Tdb_tquel.Ast.statement -> bool
(** Whether the statement writes stored pages (and therefore runs inside
    a journal statement). *)

val read_only : Tdb_tquel.Ast.statement -> bool
(** Whether the statement touches neither stored pages nor the catalog —
    a displayed [retrieve] — and so can run against a pinned snapshot
    with no lock held.  Strictly narrower than [not (mutates stmt)]:
    catalog statements and [copy] aren't page writers but aren't
    snapshot-safe either. *)

val isolation_label : ?epoch:int -> Tdb_tquel.Ast.statement -> string
(** ["snapshot@N"] for a read-only statement with a pinned epoch,
    ["serialized (writer)"] otherwise. *)

(** {1 Session entry points}

    [execute_serialized] is {!execute_statement} with log attribution —
    the session layer's writer path.  [execute_snapshot] is the lock-free
    reader path: the caller (see [Tdb_session.Session]) supplies the
    pinned snapshot — timestamp, reader-view sources, a semantic-check
    environment built from the published commit record — and upholds one
    invariant: the sources are private reader views
    ([Relation_file.reader_view]).  A snapshot statement compiles with
    [config] narrowed to one worker, so concurrent readers never fan out
    into nested domain spawns; it may run, and be traced, on any
    domain. *)

val execute_serialized :
  ?config:Tdb_query.Executor.config ->
  ?trace:bool ->
  Database.t ->
  ?session:string ->
  ?epoch:int ->
  ?log_id:int ->
  Tdb_tquel.Ast.statement ->
  (outcome, string) result

val execute_snapshot :
  config:Tdb_query.Executor.config ->
  ?trace:bool ->
  now:Tdb_time.Chronon.t ->
  sources:Tdb_query.Executor.source list ->
  semck_env:Tdb_tquel.Semck.env ->
  epoch:int ->
  ?session:string ->
  ?log_id:int ->
  Tdb_tquel.Ast.statement ->
  (outcome, string) result
(** Rejects non-read-only statements with an [Error]. *)

val execute :
  ?config:Tdb_query.Executor.config ->
  Database.t ->
  string ->
  (outcome list, string) result
(** Parses and runs a whole script, stopping at the first error. *)

val execute_one :
  ?config:Tdb_query.Executor.config ->
  Database.t ->
  string ->
  (outcome, string) result
(** Parses and runs exactly one statement. *)

val explain :
  ?config:Tdb_query.Executor.config ->
  ?epoch:int ->
  Database.t ->
  string ->
  (string, string) result
(** Parses and checks one statement and describes the plan a [retrieve]
    would execute under [config] — including fence refinements showing
    which time dimensions the storage layer will prune on — without
    running it.  The report ends with the isolation the statement would
    run at: [isolation: snapshot@N] when [?epoch] pins a session
    snapshot and the statement is read-only (it then compiles with one
    worker, as {!execute_snapshot} runs it), [isolation: serialized
    (writer)] otherwise. *)

(** {1 Explain analyze} *)

type analysis = {
  a_outcome : outcome;
  a_kind : string;
  a_text : string;  (** the statement, pretty-printed *)
  a_wall_s : float;
  a_hits : int;  (** buffer-pool hits during the statement *)
  a_misses : int;  (** buffer-pool misses during the statement *)
  a_journal_bytes : int;  (** intent-journal bytes appended *)
  a_workers : int;
      (** the fan-out width the statement compiled with; 1 when it
          compiles no parallel tree *)
  a_parallel : string option;
      (** the parallelism line(s) of the compiled tree that ran —
          admitted fan-out, [declined (too small)], [declined (one
          partition)], or off — as in [\explain] *)
  a_isolation : string;
      (** the isolation the statement ran at: ["snapshot@N"] or
          ["serialized (writer)"] *)
}

val analyze_statement :
  ?config:Tdb_query.Executor.config ->
  Database.t ->
  Tdb_tquel.Ast.statement ->
  (analysis, string) result
(** Execute the statement with its span tree requested and return the
    executed plan tree (via the outcome's trace) plus the counter deltas
    a span cannot carry: buffer hits/misses and journal bytes.  Parallel
    scans report one child span per partition with the worker's domain
    id, busy time, pages and rows. *)

val analyze :
  ?config:Tdb_query.Executor.config ->
  Database.t ->
  string ->
  (analysis, string) result
(** [analyze_statement] on one parsed statement (the CLI's
    [\explain analyze] and the [explain analyze] input prefix). *)

val analyze_snapshot :
  config:Tdb_query.Executor.config ->
  now:Tdb_time.Chronon.t ->
  sources:Tdb_query.Executor.source list ->
  semck_env:Tdb_tquel.Semck.env ->
  epoch:int ->
  ?session:string ->
  ?log_id:int ->
  Tdb_tquel.Ast.statement ->
  (analysis, string) result
(** {!analyze_statement} on the snapshot path: the statement executes
    via {!execute_snapshot} with its span tree requested, and reports
    [workers: 1].  Sound on any domain: the tree holds only the pages the
    calling domain read for this statement. *)

val render_analysis : analysis -> string
(** The annotated executed-plan tree plus a wall/workers/rows line and a
    buffer/journal counter line. *)

val analysis_to_json : analysis -> Tdb_obs.Json.t
(** The same report in the shared obs JSON form (tree included). *)

val outcome_trace : outcome -> Tdb_obs.Trace.node option
(** The span tree an outcome carries, if tracing was on ([Ack] never
    carries one). *)

val format_rows :
  ?max_rows:int ->
  Tdb_relation.Schema.t ->
  Tdb_relation.Tuple.t list ->
  string
(** A bordered textual table of query results, times rendered readably. *)
