(** Evaluation of TQuel expressions and predicates over bound tuples. *)

type binding = {
  var : string;
  schema : Tdb_relation.Schema.t;
  tuple : Tdb_relation.Tuple.t;
}

type context = {
  bindings : binding list;
  now : Tdb_time.Chronon.t;  (** the session clock's reading, for ["now"] *)
}

exception Eval_error of string
(** Raised on conditions the semantic checker cannot rule out statically
    (e.g. division by zero). *)

val expr : context -> Tdb_tquel.Ast.expr -> Tdb_relation.Value.t
(** Raises {!Eval_error} on an [Eagg] node: aggregates are folded by the
    executor, not evaluated per tuple. *)

val pred : context -> Tdb_tquel.Ast.pred -> bool
(** Operands evaluate left to right, so of two failing operands the left
    one's error is raised; [and]/[or] short-circuit. *)

val apply_binop :
  Tdb_tquel.Ast.binop -> Tdb_relation.Value.t -> Tdb_relation.Value.t ->
  Tdb_relation.Value.t
(** Arithmetic on already-computed values (used when folding aggregate
    results back into their enclosing expressions). *)

val negate : Tdb_relation.Value.t -> Tdb_relation.Value.t

val unbound : string -> 'a
(** Raises the {!Eval_error} evaluation raises for an unbound tuple
    variable. *)

val attr_index : Tdb_relation.Schema.t -> string -> string -> int
(** [attr_index schema var attr]: the position of [var.attr] in a tuple
    of [schema], raising the {!Eval_error} evaluation raises when the
    relation has no such attribute. *)

val time_of_string : now:Tdb_time.Chronon.t -> string -> Tdb_time.Chronon.t
(** A time constant, as comparisons and temporal expressions read it;
    raises {!Eval_error} when the string is not a time. *)

val period_test :
  Tdb_tquel.Ast.temppred -> Tdb_time.Period.t -> Tdb_time.Period.t -> bool
(** The period relation a primitive temporal predicate ([overlap],
    [precede], [equal]) tests; [Invalid_argument] on [and]/[or]/[not]. *)

val compare_values :
  now:Tdb_time.Chronon.t ->
  Tdb_relation.Value.t ->
  Tdb_relation.Value.t ->
  int
(** Like {!Tdb_relation.Value.compare} but a string compared against a time
    is parsed as a time constant. *)

val tempexpr : context -> Tdb_tquel.Ast.tempexpr -> Tdb_time.Period.t option
(** The period denoted by a temporal expression, or [None] when it is
    undefined ([overlap] of disjoint periods).  A tuple variable denotes its
    tuple's valid period.  A temporal predicate with an undefined operand is
    false. *)

val temppred : context -> Tdb_tquel.Ast.temppred -> bool

val exclusive_end : context -> Tdb_tquel.Ast.tempexpr -> Tdb_time.Chronon.t option
(** The exclusive upper bound denoted by the [to]-expression of a valid
    clause: [valid from a to b] builds the interval [\[a, bound)].  For
    [end of e] the bound lies just after [e]'s last chronon; for any other
    expression it is the expression's own endpoint (so [to "1980-06-01"]
    ends exactly at midnight, exclusive). *)

val valid_of_tuple : binding -> Tdb_time.Period.t
(** The valid period of a bound tuple (its whole lifetime for relations
    without valid time, so joins against static relations stay sane). *)
