(** Execution of [append], [delete] and [replace], with the version
    semantics of the paper's section 4:

    - static: updates in place, physical deletion;
    - rollback: [append] stamps \[now, forever) transaction time; [delete]
      rewrites the transaction-stop to [now]; [replace] does a delete then
      inserts the new version — append-only except for the stop-stamp;
    - historical: the same dance on \[valid from, valid to), with the
      [valid] clause able to override the defaults (retroactive and
      postactive changes);
    - temporal: [delete] stamps the old version's transaction-stop and
      {e inserts} a new version recording that validity ended at [now];
      [replace] therefore inserts {e two} new versions.

    Event relations carry a single [valid at] attribute: a historical event
    can only be physically deleted, a temporal event is terminated through
    its transaction time. *)

type counts = {
  matched : int;
  inserted : int;
  trace : Tdb_obs.Trace.node option;
  workers : int;
      (** the width the statement compiled with: a query append's, else
          1 (constant appends, deletes and replaces run inline) *)
}

exception Execution_error of string

val run_append :
  config:Executor.config ->
  now:Tdb_time.Chronon.t ->
  rel:Tdb_storage.Relation_file.t ->
  sources:Executor.source list ->
  Tdb_tquel.Ast.append ->
  counts
(** Constant appends insert one tuple (unnamed user attributes default to
    zero values); appends whose targets mention tuple variables run as a
    query under [config] and insert every result tuple. *)

val run_delete :
  now:Tdb_time.Chronon.t ->
  source:Executor.source ->
  Tdb_tquel.Ast.delete ->
  counts

val run_replace :
  now:Tdb_time.Chronon.t ->
  source:Executor.source ->
  Tdb_tquel.Ast.replace ->
  counts
