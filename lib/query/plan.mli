(** Query plans: the decomposition strategies of the Ingres-based prototype
    (paper, section 5.3).

    - a one-variable query uses keyed access when a constant equality on the
      relation's hash/ISAM key exists, otherwise a sequential scan;
    - a two-variable query with an equi-join landing on one relation's key
      uses {e one-variable detachment} of the other relation into a
      temporary, then {e tuple substitution} probing the keyed relation
      (Q09/Q10);
    - a two-variable query whose variables both carry selective
      single-variable restrictions is evaluated by detaching both into
      temporaries and joining those (Q12);
    - anything else is a nested sequential scan (Q11), except that the
      innermost variable of a 3+-variable nest is probed by key when an
      equi-join allows it.

    Any access over a relation with transaction or valid time is wrapped in
    a {!access.Time_fence} refinement: the executor pushes the query's
    rollback window (and any constant [when] bound) into the storage layer,
    which skips pages whose time fences prove no qualifying version —
    without changing which tuples the access yields after filtering. *)

type access =
  | Seq_scan
  | Keyed_probe of Tdb_tquel.Ast.expr
      (** constant expression supplying the key *)
  | Range_probe of Conjuncts.bound option * Conjuncts.bound option
      (** ISAM only: read the data pages covering \[lo, hi\] instead of
          scanning (an extension beyond the prototype; strict bounds are
          widened to inclusive and re-filtered by the restriction) *)
  | Time_fence of {
      transaction : bool;
          (** push the as-of window into page fences (the source has
              transaction time) *)
      valid_const : string option;
          (** constant bound on valid time from a [when var overlap "c"]
              conjunct *)
      base : access;  (** never itself [Time_fence] *)
    }

type inner_probe = {
  probe_var : string;  (** innermost variable, keyed on [probe_attr] *)
  probe_attr : string;
  from_var : string;  (** enclosing variable supplying the probe value *)
  from_attr : string;
}

type t =
  | Const_emit  (** no tuple variables at all *)
  | Single of { var : string; access : access }
  | Tuple_substitution of {
      detached : string;  (** scanned into a temporary *)
      substituted : string;  (** probed by key for each temporary tuple *)
      probe_attr : string;  (** the detached variable's attribute whose value probes *)
    }
  | Temporal_join of {
      outer : string;
      inner : string;
      cls : Conjuncts.allen_class;
          (** the Allen class of the classified [when] conjunct driving
              the sweep *)
    }
      (** sort-merge/partition interval join: both sides are materialized
          under their single-variable restrictions, candidate pairs come
          from an endpoint sweep over the conjunct's operand periods, and
          the residual filter re-applies the exact predicates — replacing
          the nested inner loop where {!Detach_both}/{!Nested_scan} would
          otherwise run (chosen only when enabled, both variables carry
          valid time, and a [when] conjunct between them classifies;
          keyed tuple substitution still wins) *)
  | Detach_both of { outer : string; inner : string }
  | Nested_scan of { outer : string; inner : string }
  | Nested_general of { vars : string list; probe : inner_probe option }
      (** 3+ variables: nested scans in order; the innermost is probed by
          key when an equi-join with an enclosing variable lands on it *)

type source_info = {
  var : string;
  key : (string * [ `Hash | `Isam ]) option;
      (** the relation's key attribute name, when hash/ISAM organized *)
  transaction_time : bool;
  valid_time : bool;
}

val choose :
  ?temporal_join:bool ->
  sources:source_info list ->
  conjuncts:Conjuncts.conjunct list ->
  unit ->
  t
(** [sources] in order of first appearance in the query.
    [temporal_join] (default [false]) admits the {!t.Temporal_join}
    strategy for qualifying two-variable queries; the executor passes its
    config's [temporal_join] (see {!Executor.config}). *)

val refine_access :
  source_info -> Conjuncts.conjunct list -> access -> access
(** Wraps [access] in {!access.Time_fence} when the source's time
    dimensions admit pruning; identity otherwise. *)

val fence_spec :
  source_info -> Conjuncts.conjunct list -> (bool * string option) option
(** [(transaction, valid_const)] when either fence dimension applies. *)

val to_string : t -> string
val access_to_string : string -> access -> string
