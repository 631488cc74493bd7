(** Single-variable restrictions compiled to record predicates.

    A source's restriction is its as-of window plus the [where]/[when]
    conjuncts pushed down to it.  {!compile} turns it into one test over
    the {e encoded} record, built once per statement, so a scan decodes
    only the versions that qualify.  Attributes are read at fixed byte
    offsets and constants are resolved at compile time; no record pays a
    name lookup or an evaluation context.

    The compiled test agrees with {!Eval} exactly: the window first (the
    test {!Tdb_storage.Relation_file.transaction_overlaps} runs on the
    bytes), then the conjuncts in order, each with {!Eval}'s comparisons
    and period relations.  An error {!Eval} would raise (division by
    zero, a bad time string compared with a time attribute, an unknown
    attribute) is raised by the compiled test too, and only for a record
    that reaches it. *)

val compile :
  schema:Tdb_relation.Schema.t ->
  var:string ->
  now:Tdb_time.Chronon.t ->
  window:Tdb_time.Period.t option ->
  Conjuncts.conjunct list ->
  (bytes -> bool) option
(** The test a record of [schema], bound to [var], must pass: its
    transaction period overlaps [window] (when both exist) and every
    conjunct holds.  [None] when nothing is tested, so every record
    passes.  The test is pure and does no I/O, so it is safe to run on
    any domain. *)
