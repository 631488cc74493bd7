module Schema = Tdb_relation.Schema
module Tuple = Tdb_relation.Tuple
module Value = Tdb_relation.Value
module Attr_type = Tdb_relation.Attr_type
module Db_type = Tdb_relation.Db_type
module Relation_file = Tdb_storage.Relation_file
module Io_stats = Tdb_storage.Io_stats
module Cursor = Tdb_storage.Cursor
module Time_fence = Tdb_storage.Time_fence
module Pool = Tdb_par.Pool
module Trace = Tdb_obs.Trace
module Metric = Tdb_obs.Metric
module Chronon = Tdb_time.Chronon
module Period = Tdb_time.Period
open Tdb_tquel.Ast

type source = { var : string; rel : Relation_file.t }
type io_summary = { input_reads : int; output_writes : int }

type outcome = {
  schema : Schema.t;
  count : int;
  io : io_summary;
  plan : Plan.t;
  trace : Trace.node option;
  parallel : string;
  workers : int;
}

exception Execution_error of string

let errf fmt = Printf.ksprintf (fun s -> raise (Execution_error s)) fmt

(* --- execution config ---

   Every switch a statement's execution depends on, in one immutable
   record that [compile] reads once.  The environment is read exactly
   once, here at module initialisation; callers that want another point
   of the configuration space build a record from [default_config]. *)

type config = {
  workers : int;
  floor : int;
  temporal_join : bool;
  pruning : bool;
}

let env_int name ~min ~default =
  match Option.map String.trim (Sys.getenv_opt name) with
  | Some s -> (
      match int_of_string_opt s with Some v when v >= min -> v | _ -> default)
  | None -> default

let default_config =
  {
    workers =
      env_int "TDB_WORKERS" ~min:1
        ~default:(max 1 (Domain.recommended_domain_count ()));
    (* see "reads and parallel admission" below *)
    floor = env_int "TDB_PAR_MIN_PAGES" ~min:0 ~default:128;
    temporal_join =
      (match Sys.getenv_opt "TDB_TJOIN" with
      | Some ("0" | "false" | "off") -> false
      | _ -> true);
    pruning = true;
  }

(* --- operator metrics --- *)

let m_tjoin_statements = Metric.counter "tdb_tjoin_statements_total"
let m_tjoin_input_rows = Metric.counter "tdb_tjoin_input_rows_total"
let m_tjoin_pairs = Metric.counter "tdb_tjoin_candidate_pairs_total"
let m_coalesce_statements = Metric.counter "tdb_coalesce_statements_total"
let m_coalesce_rows_in = Metric.counter "tdb_coalesce_rows_in_total"
let m_coalesce_rows_out = Metric.counter "tdb_coalesce_rows_out_total"

(* --- used variables, in order of first appearance --- *)

let used_vars (r : retrieve) =
  let acc = ref [] in
  let add v = if not (List.mem v !acc) then acc := v :: !acc in
  let rec expr = function
    | Eattr (v, _) -> add v
    | Eint _ | Efloat _ | Estring _ -> ()
    | Ebinop (_, a, b) -> expr a; expr b
    | Euminus e -> expr e
    | Eagg (_, e, by) -> expr e; List.iter expr by
  in
  let rec pred = function
    | Pcompare (_, a, b) -> expr a; expr b
    | Wand (a, b) | Wor (a, b) -> pred a; pred b
    | Wnot a -> pred a
  in
  let rec te = function
    | Tvar v -> add v
    | Tconst _ -> ()
    | Toverlap (a, b) | Textend (a, b) -> te a; te b
    | Tstart_of e | Tend_of e -> te e
  in
  let rec tp = function
    | Poverlap (a, b) | Pprecede (a, b) | Pequal (a, b) -> te a; te b
    | Pand (a, b) | Por (a, b) -> tp a; tp b
    | Pnot a -> tp a
  in
  List.iter (fun t -> expr t.value) r.targets;
  (match r.valid with
  | Some (Valid_interval (a, b)) -> te a; te b
  | Some (Valid_event e) -> te e
  | None -> ());
  (match r.where with Some p -> pred p | None -> ());
  (match r.when_ with Some p -> tp p | None -> ());
  List.rev !acc

(* --- attributes of one variable referenced by an expression tree --- *)

let add_attr acc (v, a) = if List.mem (v, a) !acc then () else acc := (v, a) :: !acc

let rec attrs_of_expr acc = function
  | Eattr (v, a) -> add_attr acc (v, a)
  | Eint _ | Efloat _ | Estring _ -> ()
  | Ebinop (_, a, b) -> attrs_of_expr acc a; attrs_of_expr acc b
  | Euminus e -> attrs_of_expr acc e
  | Eagg (_, e, by) ->
      attrs_of_expr acc e;
      List.iter (attrs_of_expr acc) by

let rec attrs_of_pred acc = function
  | Pcompare (_, a, b) -> attrs_of_expr acc a; attrs_of_expr acc b
  | Wand (a, b) | Wor (a, b) -> attrs_of_pred acc a; attrs_of_pred acc b
  | Wnot a -> attrs_of_pred acc a

(* --- result schema --- *)

(* Default names may collide (Q09 retrieves h.id and i.id) and a target may
   shadow one of the result's implicit time attributes (retrieving
   h.valid_from from a valid-time source); both get a numeric suffix. *)
let target_names ?(reserved = []) targets =
  let seen = Hashtbl.create 8 in
  List.iter (fun r -> Hashtbl.replace seen (Schema.norm_name r) 1) reserved;
  List.map
    (fun t ->
      let base = match t.out_name with Some n -> n | None -> "column" in
      let key = Schema.norm_name base in
      let n = (Hashtbl.find_opt seen key |> Option.value ~default:0) + 1 in
      Hashtbl.replace seen key n;
      if n = 1 then base else Printf.sprintf "%s#%d" base n)
    targets

let rec infer_type sources = function
  | Eattr (v, a) -> (
      match List.find_opt (fun s -> s.var = v) sources with
      | None -> errf "tuple variable %S is not in range" v
      | Some s -> (
          let schema = Relation_file.schema s.rel in
          match Schema.index_of schema a with
          | Some i -> (Schema.attr schema i).Schema.ty
          | None -> errf "relation of %s has no attribute %S" v a))
  | Eint _ -> Attr_type.I4
  | Efloat _ -> Attr_type.F8
  | Estring s -> Attr_type.C (max 1 (String.length s))
  | Euminus e -> infer_type sources e
  | Ebinop (_, a, b) -> (
      match (infer_type sources a, infer_type sources b) with
      | (Attr_type.F4 | F8), _ | _, (Attr_type.F4 | F8) -> Attr_type.F8
      | _ -> Attr_type.I4)
  | Eagg (agg, e, _) -> (
      match agg with
      | Count | Any -> Attr_type.I4
      | Avg -> Attr_type.F8
      | Sum -> (
          match infer_type sources e with
          | Attr_type.F4 | F8 -> Attr_type.F8
          | _ -> Attr_type.I4)
      | Min | Max -> infer_type sources e)

let source_has_valid_time s =
  Db_type.has_valid_time (Schema.db_type (Relation_file.schema s.rel))

(* Global-aggregate mode: the retrieve collapses to one row.  Aggregates
   with a by-list evaluate per binding instead (see the group tables). *)
let aggregate_mode (r : retrieve) =
  List.exists (fun t -> Tdb_tquel.Semck.expr_has_global_aggregate t.value)
    r.targets

let result_db_type ~sources (r : retrieve) =
  let used = used_vars r in
  let used_sources = List.filter (fun s -> List.mem s.var used) sources in
  if aggregate_mode r then
    if r.coalesce then
      (* Temporal aggregation: one row per maximal constant interval. *)
      Db_type.Historical Db_type.Interval
    else
      (* Aggregation collapses the qualifying versions into one row; the
         result carries no time attributes. *)
      Db_type.Static
  else
    match r.valid with
    | Some (Valid_event _) -> Db_type.Historical Db_type.Event
    | Some (Valid_interval _) -> Db_type.Historical Db_type.Interval
    | None ->
        if List.exists source_has_valid_time used_sources then
          Db_type.Historical Db_type.Interval
        else Db_type.Static

(* --- aggregate folding --- *)

type accumulator = {
  node : expr;  (** the [Eagg] node this accumulator folds *)
  agg : aggregate;
  operand : expr;
  mutable rows : int;
  mutable total : Value.t;
  mutable best : Value.t option;
}

let fresh_accumulator node agg operand =
  { node; agg; operand; rows = 0; total = Value.Int 0; best = None }

let rec aggregate_nodes acc = function
  | Eagg (agg, operand, []) as node ->
      if List.exists (fun a -> a.node = node) acc then acc
      else fresh_accumulator node agg operand :: acc
  | Eagg (_, _, _ :: _) -> acc (* by-aggregates fold per group, not globally *)
  | Ebinop (_, a, b) -> aggregate_nodes (aggregate_nodes acc a) b
  | Euminus e -> aggregate_nodes acc e
  | Eattr _ | Eint _ | Efloat _ | Estring _ -> acc

let accumulate_value v a =
  a.rows <- a.rows + 1;
  (match a.agg with
  | Sum | Avg ->
      a.total <-
        (if a.rows = 1 then v else Eval.apply_binop Add a.total v)
  | Min -> (
      match a.best with
      | Some b when Value.compare b v <= 0 -> ()
      | _ -> a.best <- Some v)
  | Max -> (
      match a.best with
      | Some b when Value.compare b v >= 0 -> ()
      | _ -> a.best <- Some v)
  | Count | Any -> ())

let accumulate ctx a = accumulate_value (Eval.expr ctx a.operand) a

(* The exclusive upper bound of a period: just past an event's instant. *)
let period_end_excl p =
  if Period.is_event p then Chronon.succ (Period.from_ p) else Period.to_ p

let finish a =
  match a.agg with
  | Count -> Value.Int a.rows
  | Any -> Value.Int (if a.rows > 0 then 1 else 0)
  | Sum -> if a.rows = 0 then Value.Int 0 else a.total
  | Avg ->
      if a.rows = 0 then errf "avg over an empty set"
      else
        let as_float = function
          | Value.Int n -> float_of_int n
          | Value.Float f -> f
          | v -> errf "avg of non-numeric value %s" (Value.to_string v)
        in
        Value.Float (as_float a.total /. float_of_int a.rows)
  | Min | Max -> (
      match a.best with
      | Some v -> v
      | None ->
          errf "%s over an empty set" (Tdb_tquel.Ast.aggregate_name a.agg))

(* Evaluate a target expression after folding: every [Eagg] node is looked
   up in the finished accumulators; attribute references cannot appear
   here (the checker confines them to aggregate operands). *)
let rec fold_target accs = function
  | Eagg _ as node -> (
      match List.find_opt (fun a -> a.node = node) accs with
      | Some a -> finish a
      | None -> assert false)
  | Eint n -> Value.Int n
  | Efloat f -> Value.Float f
  | Estring s -> Value.Str s
  | Ebinop (op, a, b) ->
      Eval.apply_binop op (fold_target accs a) (fold_target accs b)
  | Euminus e -> Eval.negate (fold_target accs e)
  | Eattr (v, a) -> errf "attribute %s.%s outside an aggregate" v a

let result_schema ~sources (r : retrieve) =
  let db_type = result_db_type ~sources r in
  let names = target_names ~reserved:(Schema.implicit_names db_type) r.targets in
  let attrs =
    List.map2
      (fun name t -> { Schema.name; ty = infer_type sources t.value })
      names r.targets
  in
  match Schema.create ~db_type attrs with
  | Ok s -> s
  | Error e -> errf "cannot build result schema: %s" e

(* --- as-of window --- *)

(* TQuel's default rollback point is "now": a query without an [as of]
   clause sees the current state of a rollback or temporal relation (only
   versions whose transaction period contains the present).  An explicit
   clause shifts the reference point.  Relations without transaction time
   ignore the window (see {!Restriction.compile}). *)
let as_of_window ~now = function
  | None -> Some (Period.at now)
  | Some { at; through } -> (
      let parse s =
        match Chronon.parse ~now s with
        | Ok t -> t
        | Error e -> errf "bad as-of constant %S: %s" s e
      in
      let t1 = parse at in
      match through with
      | None -> Some (Period.at t1)
      | Some s ->
          let t2 = parse s in
          if Chronon.compare t2 t1 < 0 then
            errf "as-of window ends before it starts"
          else Some (Period.make t1 (Chronon.succ t2)))

(* --- per-variable restriction --- *)

(* A source's record test for one statement, compiled from the as-of
   window and the source's pushed-down conjuncts; it runs inside the
   cursor. *)
let keep_of ~now ~window conjuncts (source : source) =
  Restriction.compile
    ~schema:(Relation_file.schema source.rel)
    ~var:source.var ~now ~window
    (Conjuncts.for_var source.var conjuncts)

let check_conjunct ctx = function
  | Conjuncts.Where p -> Eval.pred ctx p
  | Conjuncts.When p -> Eval.temppred ctx p

(* --- access paths --- *)

let key_attr (source : source) =
  match Relation_file.key_attr source.rel with
  | Some i -> Schema.attr (Relation_file.schema source.rel) i
  | None -> errf "keyed probe on a heap relation"

let coerce_key ~now ty v =
  match (ty, v) with
  | Attr_type.Time, Value.Str s -> (
      match Chronon.parse ~now s with
      | Ok t -> Value.Time t
      | Error e -> errf "bad time constant %S: %s" s e)
  | _ -> (
      match Value.coerce ty v with
      | Ok v -> v
      | Error e -> errf "bad key value: %s" e)

(* Resolve a [Time_fence] refinement into the storage layer's window: the
   transaction dimension is the query's as-of window, the valid dimension
   the constant [when] bound.  Pruning on either is sound because the
   restriction re-applies the exact tests (the as-of window, the when
   conjunct) to every surviving record. *)
let resolve_window ~now ~as_of ~transaction ~valid_const =
  let valid =
    Option.map
      (fun s ->
        match Chronon.parse ~now s with
        | Ok t -> Period.at t
        | Error e -> errf "bad time constant %S: %s" s e)
      valid_const
  in
  let transaction = if transaction then as_of else None in
  match (transaction, valid) with
  | None, None -> None
  | _ -> Some { Tdb_storage.Time_fence.transaction; valid }

(* Resolve a plan access into the storage layer's terms: the fence window
   (if the plan wrapped one) and the unified access path.  Evaluating the
   probe constants here costs no I/O. *)
let resolve_access ~now ~as_of ~access (source : source) =
  let key e =
    coerce_key ~now (key_attr source).Schema.ty
      (Eval.expr { Eval.bindings = []; now } e)
  in
  let rec go ?window = function
    | Plan.Seq_scan -> (window, Relation_file.Full_scan)
    | Plan.Keyed_probe e -> (window, Relation_file.Key_lookup (key e))
    | Plan.Range_probe (lo, hi) ->
        (* Strict bounds are widened to inclusive here; the restriction
           conjuncts (which include the original comparisons) re-filter. *)
        let bound = Option.map (fun (b : Conjuncts.bound) -> key b.expr) in
        (window, Relation_file.Key_range { lo = bound lo; hi = bound hi })
    | Plan.Time_fence { transaction; valid_const; base } ->
        let window = resolve_window ~now ~as_of ~transaction ~valid_const in
        go ?window base
  in
  go access

(* The cursor has already applied the restriction: every record it
   yields qualifies, and only those are decoded. *)
let decoded (source : source) =
  let decode = Relation_file.decode source.rel in
  fun f _tid record -> f (decode record)

(* --- reads and parallel admission ---

   Any access — a full scan, a keyed probe, a range probe, possibly
   fence-refined — can fan out over page-disjoint partitions (see
   {!Relation_file.partition_access}).  Whether it {e should} is an
   admission decision: fan-out costs domain wake-ups and private cold
   pools, which at the paper's 1986 row counts outweigh the work itself.
   The executor therefore declines to parallelize any access whose
   post-prune page count (sized for free from the fence summaries) falls
   below the config's floor, even when more workers are configured. *)

(* One access over one relation in the storage layer's terms: the fence
   window, the access path and the compiled record test. *)
type read = {
  src : source;
  window : Time_fence.window option;
  path : Relation_file.access_path;
  keep : (bytes -> bool) option;
}

type admission =
  | Inline  (** one worker configured, or an inner loop: one cursor walk *)
  | Unavailable  (** the access cannot fan out on this organization *)
  | Too_small of { pages : int }
      (** partitionable, but too small to pay for the fan-out *)
  | One_partition of { pages : int }
      (** the access yields fewer than two partitions *)
  | Fan_out of { parts : int; pages : int; pruned : int }

let admit config rd =
  if config.workers <= 1 then Inline
  else
    match
      Relation_file.partition_preview ?window:rd.window rd.src.rel
        ~parts:config.workers rd.path
    with
    | None -> Unavailable
    | Some p ->
        if p.Relation_file.pp_pages < config.floor then
          Too_small { pages = p.pp_pages }
        else if p.pp_parts < 2 then One_partition { pages = p.pp_pages }
        else
          Fan_out
            {
              parts = p.pp_parts;
              pages = p.pp_pages;
              pruned = p.pp_pruned_pages;
            }

(* Drain an admitted access's page-disjoint partitions into [emit]
   through the domain pool.

   Each worker drains its partitions through private pools — the
   partition cursors carry the compiled restriction, so workers decode
   only qualifying versions; the calling domain then emits the tuples
   partition by partition, in partition order.  Partitions are
   contiguous ranges of the sequential walk order, so the emitted
   sequence — and everything downstream of it — is bit-identical to the
   sequential access's.  Partition I/O and fence skips are folded into
   the source's stats and per-partition spans after the join; a failing
   worker's error is re-raised here (first by partition order) once all
   workers have stopped.  Shard-level prunes charged at partition-build
   time land on the current span directly.  The calling domain runs one
   of the worker loops itself; its partitions drain off the span stack,
   so their reads and skips are charged once, by the fold below, like
   every other worker's. *)
let drain_partitions ~workers rd ~parts emit =
  let parts =
    match
      Relation_file.partition_access ?window:rd.window ?keep:rd.keep rd.src.rel
        ~parts rd.path
    with
    | Some ps -> Array.of_list ps
    | None -> assert false (* admitted off the preview, so it fans out *)
  in
  let visit = decoded rd.src in
  let drained =
    Pool.run_tasks ~workers (Array.length parts) (fun i ->
        Trace.unattributed @@ fun () ->
        let cursor, _stats = parts.(i) in
        let t0 = Metric.monotonic_s () in
        let acc = ref [] in
        Cursor.iter cursor (visit (fun tuple -> acc := tuple :: !acc));
        (List.rev !acc, Metric.monotonic_s () -. t0,
         (Domain.self () :> int)))
  in
  (* Fold each partition's private I/O into the pool's counters and
     attribute it to a per-partition child span (instead of dumping
     it on the scan span), so [explain analyze] can show per-domain
     busy time, pages and rows while the subtree still sums to the
     query's exact page total.  A partition's fence skips are counted in
     its private stats too, so they land on its span, once. *)
  let scan_span = Trace.current () in
  Array.iteri
    (fun i (_, stats) ->
      Io_stats.absorb ~trace:false ~into:(Relation_file.stats rd.src.rel) stats;
      let rows, busy_s, domain = drained.(i) in
      Trace.note_partition ~parent:scan_span ~index:i ~domain ~busy_s
        ~rows:(List.length rows) ~reads:(Io_stats.reads stats)
        ~writes:(Io_stats.writes stats) ~skips:(Io_stats.skips stats))
    parts;
  Array.iter (fun (tuples, _, _) -> List.iter emit tuples) drained

(* One cursor walk of an access on this domain. *)
let walk rd emit =
  Cursor.iter
    (Relation_file.cursor ?window:rd.window ?keep:rd.keep rd.src.rel rd.path)
    (decoded rd.src emit)

(* Drain one access into [emit] under its window: fanned out over the
   config's workers when admitted, else one cursor walk. *)
let drain config rd admission emit =
  match admission with
  | Fan_out { parts; _ } ->
      drain_partitions ~workers:config.workers rd ~parts emit
  | Inline | Unavailable | Too_small _ | One_partition _ -> walk rd emit

(* --- one-variable detachment --- *)

(* The restriction of one source projected onto the user attributes in
   [needed], into a temporary heap relation (implicit time attributes
   ride along via the temporary's schema, which shares the source's
   database type). *)
type detach = {
  d_read : read;
  d_schema : Schema.t;  (** the temporary's *)
  d_mapping : int array;  (** temporary attribute -> source attribute *)
}

let detach_of d_read ~needed =
  let src_schema = Relation_file.schema d_read.src.rel in
  let user_attrs =
    Array.to_list (Schema.user_attrs src_schema)
    |> List.filter (fun a -> List.mem (Schema.norm_name a.Schema.name) needed)
  in
  let user_attrs =
    (* A detachment always keeps at least one user attribute so the schema
       is well-formed. *)
    match user_attrs with
    | [] -> [ (Schema.user_attrs src_schema).(0) ]
    | l -> l
  in
  let d_schema =
    match Schema.create ~db_type:(Schema.db_type src_schema) user_attrs with
    | Ok s -> s
    | Error e -> errf "cannot build temporary schema: %s" e
  in
  let d_mapping =
    Array.map
      (fun a ->
        match Schema.index_of src_schema a.Schema.name with
        | Some i -> i
        | None -> assert false)
      (Schema.all_attrs d_schema)
  in
  { d_read; d_schema; d_mapping }

let run_detach d =
  let temp =
    Relation_file.create
      ~name:(d.d_read.src.var ^ "_temp")
      ~schema:d.d_schema ()
  in
  let inserted = ref 0 in
  walk d.d_read (fun tuple ->
      let projected = Array.map (fun i -> tuple.(i)) d.d_mapping in
      ignore (Relation_file.insert temp projected);
      incr inserted);
  (* Flush so every page of the temporary is written (output cost) and the
     pool is cold for the reading phase (input cost), as in the paper. *)
  Tdb_storage.Buffer_pool.invalidate (Relation_file.pool temp);
  (temp, !inserted)

(* --- sources and access choice --- *)

let schema_of s = Relation_file.schema s.rel

let source_info s =
  let key =
    match (Relation_file.organization s.rel, Relation_file.key_attr s.rel) with
    | Relation_file.Hash _, Some i ->
        Some (Schema.norm_name (Schema.attr (schema_of s) i).Schema.name, `Hash)
    | Relation_file.Isam _, Some i ->
        Some (Schema.norm_name (Schema.attr (schema_of s) i).Schema.name, `Isam)
    | _ -> None
  in
  let dbt = Schema.db_type (schema_of s) in
  {
    Plan.var = s.var;
    key;
    transaction_time = Db_type.has_transaction_time dbt;
    valid_time = Db_type.has_valid_time dbt;
  }

let ordered_sources ~sources r =
  List.map
    (fun v ->
      match List.find_opt (fun s -> s.var = v) sources with
      | Some s -> s
      | None -> errf "tuple variable %S is not in range" v)
    (used_vars r)

(* Best single-variable access path: keyed when a constant equality on
   the relation's key exists — fence-refined like every other access. *)
let access_for conjuncts s =
  let info = source_info s in
  let base =
    match info.Plan.key with
    | Some (attr, _) -> (
        match Conjuncts.constant_key_probe conjuncts ~var:s.var ~attr with
        | Some e -> Plan.Keyed_probe e
        | None -> Plan.Seq_scan)
    | None -> Plan.Seq_scan
  in
  Plan.refine_access info conjuncts base

let fenced_scan conjuncts s =
  Plan.refine_access (source_info s) conjuncts Plan.Seq_scan

(* --- temporal-join helpers --- *)

(* The classified conjunct a [Temporal_join] plan runs on, oriented to the
   plan's outer/inner assignment. *)
type tjoin_spec = {
  tj_class : Conjuncts.allen_class;
  tj_outer_ep : Conjuncts.allen_endpoint;
  tj_inner_ep : Conjuncts.allen_endpoint;
  tj_outer_is_left : bool;
}

let tjoin_spec conjuncts ~outer ~inner =
  match Conjuncts.temporal_join_between conjuncts ~a:outer ~b:inner with
  | None -> None
  | Some aj ->
      let outer_is_left = aj.Conjuncts.aj_left.Conjuncts.op_var = outer in
      let oep, iep =
        if outer_is_left then
          (aj.aj_left.Conjuncts.op_endpoint, aj.aj_right.Conjuncts.op_endpoint)
        else
          (aj.aj_right.Conjuncts.op_endpoint, aj.aj_left.Conjuncts.op_endpoint)
      in
      Some
        {
          tj_class = aj.Conjuncts.aj_class;
          tj_outer_ep = oep;
          tj_inner_ep = iep;
          tj_outer_is_left = outer_is_left;
        }

let tj_class_label = function
  | `Overlap -> "overlap"
  | `Equal -> "equal"
  | `Precede -> "precede"

(* Equi-join conjuncts between the two sides hash-partition the sweep.  A
   partition key must group values exactly like the equality the residual
   filter re-applies: numeric columns canonicalize through float (i4
   values are exact in a double, so int-vs-float equalities land in one
   group), strings through identity.  [time] columns (which the filter
   compares with string-parsing coercion) and mixed families decline —
   partitioning is an optimization, and declining never loses rows,
   whereas under-grouping would. *)
type tjoin_partition = {
  tp_outer_key : Tuple.t -> string;
  tp_inner_key : Tuple.t -> string;
  tp_label : string;
}

let tjoin_partition (so : source) (si : source) ~outer ~inner conjuncts =
  let column schema attr =
    match Schema.index_of schema attr with
    | None -> None
    | Some i -> Some (i, (Schema.attr schema i).Schema.ty)
  in
  let family ty =
    if Attr_type.is_numeric ty then Some `Num
    else if Attr_type.is_string ty then Some `Str
    else None
  in
  let canon fam i (tuple : Tuple.t) =
    match (fam, tuple.(i)) with
    | `Num, Value.Int n -> Printf.sprintf "%h" (float_of_int n)
    | `Num, Value.Float f -> Printf.sprintf "%h" f
    | _, v -> Value.to_string v
  in
  let pairs =
    Conjuncts.join_equalities conjuncts
    |> List.filter_map (fun (je : Conjuncts.join_equality) ->
           let oriented =
             if je.left_var = outer && je.right_var = inner then
               Some (je.left_attr, je.right_attr)
             else if je.left_var = inner && je.right_var = outer then
               Some (je.right_attr, je.left_attr)
             else None
           in
           match oriented with
           | None -> None
           | Some (oa, ia) -> (
               match (column (schema_of so) oa, column (schema_of si) ia) with
               | Some (oi, oty), Some (ii, ity) -> (
                   match (family oty, family ity) with
                   | Some fo, Some fi when fo = fi ->
                       Some
                         ( canon fo oi,
                           canon fi ii,
                           Printf.sprintf "%s=%s" (Schema.norm_name oa)
                             (Schema.norm_name ia) )
                   | _ -> None)
               | _ -> None))
  in
  match pairs with
  | [] -> None
  | ps ->
      let key fns tuple =
        String.concat "\x00" (List.map (fun f -> f tuple) fns)
      in
      Some
        {
          tp_outer_key = key (List.map (fun (f, _, _) -> f) ps);
          tp_inner_key = key (List.map (fun (_, f, _) -> f) ps);
          tp_label =
            String.concat "," (List.map (fun (_, _, l) -> l) ps);
        }

(* Valid envelope of the outer side's reduced operand periods: any inner
   tuple that can pair with some outer tuple has a valid period
   overlapping this window, so pushing it into the inner scan's fence
   window only skips pages that provably produce no candidate.  The
   envelope rests on the same fence invariant as every other valid-window
   prune: no record's valid period starts at [forever].  Degenerate
   envelopes (everything saturated at [forever]) decline — narrowing is
   an optimization. *)
let tjoin_envelope spec outer_periods =
  match outer_periods with
  | [] -> None
  | p0 :: rest -> (
      match spec.tj_class with
      | `Overlap | `Equal ->
          let lo =
            List.fold_left
              (fun acc p -> Chronon.min acc (Period.from_ p))
              (Period.from_ p0) rest
          in
          let hi =
            List.fold_left
              (fun acc p -> Chronon.max acc (period_end_excl p))
              (period_end_excl p0) rest
          in
          if Chronon.compare lo hi < 0 then Some (Period.make lo hi)
          else None
      | `Precede ->
          if spec.tj_outer_is_left then
            (* candidates start at or after the earliest outer end *)
            let lo =
              List.fold_left
                (fun acc p -> Chronon.min acc (Period.to_ p))
                (Period.to_ p0) rest
            in
            if Chronon.is_forever lo then None
            else Some (Period.make lo Chronon.forever)
          else
            (* candidates end at or before the latest outer start *)
            let hi =
              List.fold_left
                (fun acc p -> Chronon.max acc (Period.from_ p))
                (Period.from_ p0) rest
            in
            if Chronon.is_forever hi then None
            else Some (Period.make Chronon.beginning (Chronon.succ hi)))

(* --- the operator tree ---

   [compile] resolves everything a retrieve needs, once per statement:
   the plan, each source's restriction, access path and fence window,
   the driving access's parallel admission, the temporal join's spec and
   partition key, and the probes' key columns.  The result is a chain of
   operator records — a row source feeding one stage after another —
   plus the detachments that run before it.  Execution runs the chain,
   [\explain] renders it and explain analyze reports the admission it
   took, so all three describe the same operators. *)

(* A row is the bindings accumulated so far, outermost variable first. *)
type row = Eval.binding list

(* A relation a row source or inner loop reads: a stored source under
   its admission, or the temporary a detachment filled. *)
type input = Stored of read * admission | Temp of string

type probe = {
  p_read : read;  (** the keyed source; the path is each row's key lookup *)
  p_key_type : Attr_type.t;
  p_from : string;  (** the variable whose binding supplies the key *)
  p_from_index : int;  (** its key column *)
}

type tjoin = {
  tj_spec : tjoin_spec;
  tj_part : tjoin_partition option;
  tj_outer : source;
  tj_inner : read;  (** narrowed to the outer envelope at run time *)
}

type stage =
  | Nest of input  (** re-runs the access once per input row, inline *)
  | Probe of probe  (** keyed inner loop, admitted per key *)
  | Tjoin of tjoin  (** merge temporal join over the buffered outer rows *)
  | Filter of Conjuncts.conjunct list  (** the residual conjuncts *)
  | Emit  (** target values, valid clause, dedup, or aggregate folding *)
  | Coalesce  (** merges the emitted rows into maximal periods *)
  | Temporal_agg  (** folds the aggregates per maximal constant interval *)

(* Each operator carries its span and [\explain] label. *)
type 'k op = { label : string; kind : 'k }

(* A by-aggregate's pre-scan of its variable's whole relation. *)
type by_agg = {
  ba_node : expr;
  ba_agg : aggregate;
  ba_operand : expr;
  ba_by : expr list;
  ba_read : read;
}

type compiled = {
  plan : Plan.t;
  now : Chronon.t;
  retrieve : retrieve;
  sources : source list;  (** used ones, in order of first appearance *)
  result : Schema.t;
  config : config;
  by_aggs : by_agg list;
  detaches : (string * detach) op list;  (** by variable, in run order *)
  input : input op option;  (** [None] for a constant emit *)
  stages : stage op list;
}

let batch_size = Cursor.target

let choose config sources conjuncts =
  Plan.choose ~temporal_join:config.temporal_join
    ~sources:(List.map source_info sources) ~conjuncts ()

let plan_retrieve ~sources (r : retrieve) =
  choose default_config (ordered_sources ~sources r)
    (Conjuncts.split r.where r.when_)

let compile ~config ~now ~sources (r : retrieve) =
  let sources = ordered_sources ~sources r in
  let conjuncts = Conjuncts.split r.where r.when_ in
  let plan = choose config sources conjuncts in
  let window = as_of_window ~now r.as_of in
  (* With pruning off, storage gets no fence window and reads every page. *)
  let fence w = if config.pruning then w else None in
  let find v = List.find (fun s -> s.var = v) sources in
  (* Each source's restriction, compiled once for the whole statement:
     inner sides of nested loops and probes reuse it per outer row. *)
  let keeps =
    List.map (fun s -> (s.var, keep_of ~now ~window conjuncts s)) sources
  in
  let read v access =
    let src = find v in
    let window, path = resolve_access ~now ~as_of:window ~access src in
    { src; window = fence window; path; keep = List.assoc v keeps }
  in
  let residual = Conjuncts.multi_var conjuncts in
  (* attributes of [var] needed downstream of its detachment *)
  let needed_for var =
    let acc = ref [] in
    List.iter (fun t -> attrs_of_expr acc t.value) r.targets;
    List.iter
      (function
        | Conjuncts.Where p -> attrs_of_pred acc p | Conjuncts.When _ -> ())
      residual;
    List.filter_map
      (fun (v, a) -> if v = var then Some (Schema.norm_name a) else None)
      !acc
  in
  let label v access = Plan.access_to_string v access in
  let best v = access_for conjuncts (find v) in
  let fenced v = fenced_scan conjuncts (find v) in
  let stored v access admission =
    let rd = read v access in
    { label = label v access; kind = Stored (rd, admission rd) }
  in
  let scan v access = stored v access (admit config) in
  let temp v = { label = Printf.sprintf "scan(%s')" v; kind = Temp v } in
  let nest (input : input op) =
    { label = Printf.sprintf "nest(%s)" input.label; kind = Nest input.kind }
  in
  let detach ?(needed = []) v =
    let access = best v in
    {
      label = Printf.sprintf "detach(%s)" (label v access);
      kind = (v, detach_of (read v access) ~needed:(needed @ needed_for v));
    }
  in
  let probe v ~from ~from_attr ~from_schema =
    let src = find v in
    let p_from_index =
      match Schema.index_of from_schema from_attr with
      | Some i -> i
      | None -> errf "probe attribute %s.%s not found" from from_attr
    in
    let window =
      match Plan.fence_spec (source_info src) conjuncts with
      | Some (transaction, valid_const) ->
          resolve_window ~now ~as_of:window ~transaction ~valid_const
      | None -> None
    in
    {
      label =
        Printf.sprintf "probe(%s.%s<-%s.%s)" v
          (Schema.norm_name (key_attr src).Schema.name)
          from (Schema.norm_name from_attr);
      kind =
        Probe
          {
            p_read =
              { src; window = fence window; path = Relation_file.Full_scan;
                keep = List.assoc v keeps };
            p_key_type = (key_attr src).Schema.ty;
            p_from = from;
            p_from_index;
          };
    }
  in
  let tjoin outer inner cls =
    let so = find outer and si = find inner in
    let spec =
      match tjoin_spec conjuncts ~outer ~inner with
      | Some s -> s
      | None -> assert false (* the plan was chosen off this conjunct *)
    in
    let part = tjoin_partition so si ~outer ~inner conjuncts in
    let access = best inner in
    {
      label =
        Printf.sprintf "tjoin[%s%s](%s)" (tj_class_label cls)
          (match part with None -> "" | Some p -> " on " ^ p.tp_label)
          (label inner access);
      kind =
        Tjoin
          { tj_spec = spec; tj_part = part; tj_outer = so;
            tj_inner = read inner access };
    }
  in
  (* Nested scans in variable order, the innermost probed by key when the
     plan found an equi-join landing on it. *)
  let nested vars probe_of =
    let rec mids = function
      | [] -> []
      | [ v ] -> (
          match probe_of with
          | Some (p : Plan.inner_probe) when p.probe_var = v ->
              [ probe v ~from:p.from_var ~from_attr:p.from_attr
                  ~from_schema:(schema_of (find p.from_var)) ]
          | _ -> [ nest (stored v (fenced v) (fun _ -> Inline)) ])
      | v :: tl -> nest (stored v (fenced v) (fun _ -> Inline)) :: mids tl
    in
    match vars with
    | [] -> ([], None, [])
    | v1 :: rest -> ([], Some (scan v1 (fenced v1)), mids rest)
  in
  let detaches, input, mids =
    match plan with
    | Plan.Const_emit -> ([], None, [])
    | Plan.Single { var; access } -> ([], Some (scan var access), [])
    | Plan.Tuple_substitution { detached; substituted; probe_attr } ->
        let d = detach ~needed:[ Schema.norm_name probe_attr ] detached in
        ( [ d ],
          Some (temp detached),
          [ probe substituted ~from:detached ~from_attr:probe_attr
              ~from_schema:(snd d.kind).d_schema ] )
    | Plan.Temporal_join { outer; inner; cls } ->
        ([], Some (scan outer (best outer)), [ tjoin outer inner cls ])
    | Plan.Detach_both { outer; inner } ->
        ( [ detach outer; detach inner ],
          Some (temp outer),
          [ nest (temp inner) ] )
    | Plan.Nested_scan { outer; inner } -> nested [ outer; inner ] None
    | Plan.Nested_general { vars; probe } -> nested vars probe
  in
  let agg = aggregate_mode r in
  let emit = { label = (if agg then "emit(agg)" else "emit"); kind = Emit } in
  let stages =
    match input with
    | None -> [ emit ]
    | Some _ ->
        mids
        @ (if residual = [] then []
           else
             [ { label = Printf.sprintf "filter(%d)" (List.length residual);
                 kind = Filter residual } ])
        @ [ emit ]
        @
        if not r.coalesce then []
        else if agg then [ { label = "temporal-agg"; kind = Temporal_agg } ]
        else [ { label = "coalesce"; kind = Coalesce } ]
  in
  (* By-aggregates fold over their variable's whole relation under the
     rollback window alone (a restriction without conjuncts). *)
  let by_aggs =
    let rec collect acc = function
      | Eagg (agg, operand, (_ :: _ as by)) as node ->
          if List.exists (fun b -> b.ba_node = node) acc then acc
          else
            let var =
              match by with
              | Eattr (v, _) :: _ -> v
              | _ -> errf "by-list entries must be attribute references"
            in
            let src = find var in
            let keep = keep_of ~now ~window [] src in
            { ba_node = node; ba_agg = agg; ba_operand = operand; ba_by = by;
              ba_read =
                { src; window = None; path = Relation_file.Full_scan; keep } }
            :: acc
      | Eagg (_, _, []) | Eattr _ | Eint _ | Efloat _ | Estring _ -> acc
      | Ebinop (_, a, b) -> collect (collect acc a) b
      | Euminus e -> collect acc e
    in
    List.fold_left (fun acc t -> collect acc t.value) [] r.targets
  in
  { plan; now; retrieve = r; sources; result = result_schema ~sources r;
    config; by_aggs; detaches; input; stages }

(* --- explain --- *)

let admission_line ~workers ~floor var path = function
  | Inline -> Printf.sprintf "parallel: off (workers=%d)" workers
  | Unavailable ->
      Printf.sprintf "parallel: off (workers=%d, %s does not fan out)" workers
        var
  | Too_small { pages } ->
      Printf.sprintf
        "parallel: declined (too small): %s has %d post-prune page%s, floor %d"
        var pages (if pages = 1 then "" else "s") floor
  | One_partition { pages } ->
      Printf.sprintf
        "parallel: declined (one partition): %s has %d post-prune page%s" var
        pages (if pages = 1 then "" else "s")
  | Fan_out { parts; pages; pruned } ->
      Printf.sprintf
        "parallel: %d workers, %s(%s) in %d partition%s (%d live page%s, %d \
         shard-pruned)"
        workers
        (match path with
        | Relation_file.Full_scan -> "scan"
        | Relation_file.Key_lookup _ -> "probe"
        | Relation_file.Key_range _ -> "range")
        var parts
        (if parts = 1 then "" else "s")
        pages
        (if pages = 1 then "" else "s")
        pruned

(* The parallelism line(s): the admission the driving access took —
   including declines, so the admission floor is visible — plus a note
   for each inner side whose fan-out is decided at run time: a probe's
   per key value, a temporal join's inner side once the outer rows'
   valid envelope has narrowed its fence window. *)
let parallel_report c =
  let { workers; floor; _ } = c.config in
  if workers <= 1 then Printf.sprintf "parallel: off (workers=%d)" workers
  else
    let main =
      match c.input with
      | Some { kind = Stored (rd, adm); _ } ->
          admission_line ~workers ~floor rd.src.var rd.path adm
      | Some { kind = Temp _; _ } | None ->
          Printf.sprintf "parallel: off (workers=%d, no driving scan)" workers
    in
    let notes =
      List.filter_map
        (fun op ->
          match op.kind with
          | Probe p ->
              Some
                (Printf.sprintf
                   "parallel probes: %s decided per key (floor %d pages)"
                   p.p_read.src.var floor)
          | Tjoin tj ->
              Some
                (Printf.sprintf
                   "parallel tjoin inner: %s decided after envelope narrowing \
                    (floor %d pages)"
                   tj.tj_inner.src.var floor)
          | _ -> None)
        c.stages
    in
    String.concat "\n" (main :: notes)

let explain c =
  let b = Buffer.create 256 in
  Printf.bprintf b "%s\nbatch pipeline [batch=%d]" (Plan.to_string c.plan)
    batch_size;
  List.iter (fun d -> Printf.bprintf b "\n  %s" d.label) c.detaches;
  let labels =
    Option.to_list (Option.map (fun i -> i.label) c.input)
    @ List.map (fun s -> s.label) c.stages
  in
  Printf.bprintf b "\n  %s\n%s" (String.concat " -> " labels)
    (parallel_report c);
  Buffer.contents b

(* --- execution --- *)

type sink = { push : row array -> unit; close : unit -> unit }

let terminal = { push = ignore; close = ignore }

(* Accumulate rows into batches of [batch_size] before pushing them
   downstream; [flush] sends a final short batch.  Each pushed batch
   counts against the producing stage's [span]. *)
let row_batcher span down =
  let buf = Array.make batch_size [] in
  let n = ref 0 in
  let flush () =
    if !n > 0 then begin
      let batch = Array.sub buf 0 !n in
      n := 0;
      Trace.note_batch span;
      down.push batch
    end
  in
  let push row =
    buf.(!n) <- row;
    incr n;
    if !n = batch_size then flush ()
  in
  (push, flush)

(* A stage that may yield several output rows per input row (nested inner
   scans, keyed probes): its span is entered for each input batch, so the
   inner access's page I/O lands on it, and its output is re-batched. *)
let expand_stage span expand down =
  let push_out, flush = row_batcher span down in
  {
    push =
      (fun rows ->
        Trace.enter span;
        Array.iter
          (fun r ->
            expand r (fun r' ->
                Trace.add_tuples span 1;
                push_out r'))
          rows;
        Trace.exit span);
    close =
      (fun () ->
        flush ();
        down.close ());
  }

(* The residual (multi-variable) conjuncts, applied batch-at-a-time; a
   shrunk batch flows on without re-batching. *)
let filter_stage ~now residual span down =
  {
    push =
      (fun rows ->
        Trace.enter span;
        let keep =
          List.filter
            (fun r ->
              List.for_all
                (check_conjunct { Eval.bindings = r; now })
                residual)
            (Array.to_list rows)
        in
        (match keep with
        | [] -> ()
        | _ ->
            let out = Array.of_list keep in
            Trace.add_tuples span (Array.length out);
            Trace.note_batch span;
            down.push out);
        Trace.exit span);
    close = down.close;
  }

let emit_stage span emit_row down =
  {
    push =
      (fun rows ->
        Trace.enter span;
        Trace.add_tuples span (Array.length rows);
        Trace.note_batch span;
        Array.iter emit_row rows;
        Trace.exit span);
    close = down.close;
  }

(* Coalescing and temporal aggregation buffer inside the emit stage and
   finish when the chain closes, under their own span; they perform no
   page I/O, so the subtree-sum invariant is untouched. *)
let finish_stage span finish =
  {
    push = ignore;
    close =
      (fun () ->
        Trace.enter span;
        finish span;
        Trace.exit span);
  }

let binding s tuple = { Eval.var = s.var; schema = schema_of s; tuple }

(* The temporal join: buffers the outer rows, materializes the inner side
   under a fence window narrowed to the outer rows' valid envelope (its
   page pulls and shard partitions charge to the join span), sweeps for
   candidate pairs and re-emits them in (outer, inner) order. *)
let tjoin_stage config tj span down =
  let spec = tj.tj_spec and so = tj.tj_outer and si = tj.tj_inner.src in
  (* A tuple with no valid period binds the whole lifetime, mirroring
     {!Eval.valid_of_tuple}. *)
  let valid_of s tuple =
    match Tuple.valid_period (schema_of s) tuple with
    | Some p -> p
    | None -> Period.make Chronon.beginning Chronon.forever
  in
  Metric.incr m_tjoin_statements;
  let outer_rows = ref [] in
  let close () =
    let outer_arr = Array.of_list (List.rev !outer_rows) in
    Trace.enter span;
    Fun.protect ~finally:(fun () -> Trace.exit span) @@ fun () ->
    let outer_tuple row = (List.hd row).Eval.tuple in
    let outer_periods =
      Array.map
        (fun row ->
          Tjoin.reduce spec.tj_outer_ep (valid_of so (outer_tuple row)))
        outer_arr
    in
    let inner_tuples = ref [] in
    if Array.length outer_arr > 0 then begin
      let envelope = tjoin_envelope spec (Array.to_list outer_periods) in
      let rd =
        if not config.pruning then tj.tj_inner
        else
          { tj.tj_inner with
            window = Time_fence.narrow_valid tj.tj_inner.window envelope }
      in
      drain config rd (admit config rd) (fun t ->
          inner_tuples := t :: !inner_tuples)
    end;
    let inner_arr = Array.of_list (List.rev !inner_tuples) in
    Metric.add m_tjoin_input_rows
      (Array.length outer_arr + Array.length inner_arr);
    let inner_periods =
      Array.map
        (fun t -> Tjoin.reduce spec.tj_inner_ep (valid_of si t))
        inner_arr
    in
    (* Candidate pairs via the interval sweep, hash-partitioned on the
       equi-join keys when the predicate has any; pairs come back as
       (outer index, inner index). *)
    let run o_items i_items =
      if spec.tj_outer_is_left then
        Tjoin.join ~cls:spec.tj_class ~left:o_items ~right:i_items
      else
        Tjoin.join ~cls:spec.tj_class ~left:i_items ~right:o_items
        |> List.map (fun (l, r) -> (r, l))
    in
    let o_tagged = Array.mapi (fun i p -> (p, i)) outer_periods in
    let i_tagged = Array.mapi (fun i p -> (p, i)) inner_periods in
    let raw_pairs =
      match tj.tj_part with
      | None -> run o_tagged i_tagged
      | Some p ->
          let groups = Hashtbl.create 64 in
          let add k side item =
            let o, i =
              Option.value (Hashtbl.find_opt groups k) ~default:([], [])
            in
            Hashtbl.replace groups k
              (match side with `O -> (item :: o, i) | `I -> (o, item :: i))
          in
          Array.iter
            (fun (per, i) ->
              add (p.tp_outer_key (outer_tuple outer_arr.(i))) `O (per, i))
            o_tagged;
          Array.iter
            (fun (per, i) -> add (p.tp_inner_key inner_arr.(i)) `I (per, i))
            i_tagged;
          Hashtbl.fold
            (fun _ (os, is_) acc ->
              match (os, is_) with
              | [], _ | _, [] -> acc
              | _ -> run (Array.of_list os) (Array.of_list is_) @ acc)
            groups []
    in
    (* Sorting by (outer, inner) index restores the nested-loop row
       order, so results are bit-identical to the fallback. *)
    let pairs = List.sort compare raw_pairs in
    Metric.add m_tjoin_pairs (List.length pairs);
    let push_out, flush_out = row_batcher span down in
    List.iter
      (fun (oi, ii) ->
        Trace.add_tuples span 1;
        push_out (outer_arr.(oi) @ [ binding si inner_arr.(ii) ]))
      pairs;
    flush_out ()
  in
  {
    push =
      (fun rows ->
        Array.iter (fun row -> outer_rows := row :: !outer_rows) rows);
    close =
      (fun () ->
        close ();
        down.close ());
  }

let run c ~on_tuple =
  let r = c.retrieve and now = c.now and result = c.result in
  (* I/O accounting: deltas on the sources plus everything the temporaries
     do. *)
  let before =
    List.map (fun s -> Io_stats.snapshot (Relation_file.stats s.rel)) c.sources
  in
  let count = ref 0 in
  let agg_mode = aggregate_mode r in
  let accumulators =
    if agg_mode then
      List.fold_left (fun acc t -> aggregate_nodes acc t.value) [] r.targets
    else []
  in
  let seen = if r.unique then Some (Hashtbl.create 64) else None in
  (* [retrieve coalesced]: non-aggregate rows are staged whole and merged
     when the chain closes; aggregate rows contribute (period, operand values)
     triples that the temporal-aggregation sweep folds per elementary
     interval. *)
  let coalesce_staged = ref [] in
  let agg_contribs = ref [] in
  if r.coalesce then Metric.incr m_coalesce_statements;
  let participating_overlap (bindings : Eval.binding list) =
    match
      List.filter_map
        (fun (b : Eval.binding) -> Tuple.valid_period b.schema b.tuple)
        bindings
    with
    | [] -> None
    | p :: rest ->
        List.fold_left
          (fun acc q ->
            match acc with None -> None | Some a -> Period.overlap a q)
          (Some p) rest
  in
  let deliver tuple =
    match seen with
    | None ->
        incr count;
        on_tuple tuple
    | Some tbl ->
        let key =
          String.concat "\x00"
            (Array.to_list (Array.map Value.to_string tuple))
        in
        if not (Hashtbl.mem tbl key) then begin
          Hashtbl.add tbl key ();
          incr count;
          on_tuple tuple
        end
  in
  (* By-aggregates: one fold table per distinct node, grouped on the
     by-values, computed up front over the node's whole relation.  Like
     Quel's aggregate functions they are independent of the outer where
     clause; only the rollback window applies (a query must never see
     versions outside its transaction-time view).  The scan's page reads
     count toward the query's input cost. *)
  let by_agg_tables = List.map (fun b -> (b, Hashtbl.create 16)) c.by_aggs in
  let group_key ctx by =
    String.concat "\x00"
      (List.map (fun e -> Value.to_string (Eval.expr ctx e)) by)
  in
  (* The root span covers everything that performs page I/O on behalf of
     this query: the by-aggregate pre-scans, the plan operators, and the
     final flush of the temporaries.  [Io_stats] charges every page to the
     innermost active span, so the tree's read total equals the query's
     [input_reads]. *)
  let qnode = Trace.start ("retrieve " ^ Plan.to_string c.plan) in
  Fun.protect ~finally:(fun () -> Trace.finish qnode) @@ fun () ->
  List.iter
    (fun (b, groups) ->
      Trace.within (Printf.sprintf "agg-scan(%s)" b.ba_read.src.var) (fun tn ->
          walk b.ba_read (fun tuple ->
              Trace.add_tuples tn 1;
              let ctx =
                { Eval.bindings = [ binding b.ba_read.src tuple ]; now }
              in
              let key = group_key ctx b.ba_by in
              let accum =
                match Hashtbl.find_opt groups key with
                | Some a -> a
                | None ->
                    let a = fresh_accumulator b.ba_node b.ba_agg b.ba_operand in
                    Hashtbl.add groups key a;
                    a
              in
              accumulate ctx accum)))
    by_agg_tables;
  let rec eval_target ctx = function
    | Eagg (_, _, _ :: _) as node -> (
        let b, groups =
          List.find (fun (b, _) -> b.ba_node = node) by_agg_tables
        in
        match Hashtbl.find_opt groups (group_key ctx b.ba_by) with
        | Some accum -> finish accum
        | None -> errf "by-aggregate group not found for this binding")
    | Ebinop (op, a, b) ->
        Eval.apply_binop op (eval_target ctx a) (eval_target ctx b)
    | Euminus e -> Eval.negate (eval_target ctx e)
    | (Eattr _ | Eint _ | Efloat _ | Estring _ | Eagg (_, _, [])) as e ->
        Eval.expr ctx e
  in
  (* Deliver one row (the residual conjuncts were applied by the filter
     stage; a row that reaches here joins the result). *)
  let emit_row (row : row) =
    let ctx = { Eval.bindings = row; now } in
    if agg_mode then begin
      if r.coalesce then begin
        match participating_overlap ctx.Eval.bindings with
        | None -> ()
        | Some p ->
            let vals =
              List.map (fun a -> Eval.expr ctx a.operand) accumulators
              |> Array.of_list
            in
            agg_contribs :=
              (Period.from_ p, period_end_excl p, vals) :: !agg_contribs
      end
      else List.iter (accumulate ctx) accumulators
    end
    else begin
      let user_values =
        List.map (fun t -> eval_target ctx t.value) r.targets |> Array.of_list
      in
      let time_values =
        match Schema.db_type result with
        | Db_type.Static -> Some [||]
        | Db_type.Historical Db_type.Event -> (
            match r.valid with
            | Some (Valid_event e) -> (
                match Eval.tempexpr ctx e with
                | Some p -> Some [| Value.Time (Period.from_ p) |]
                | None -> None)
            | _ -> errf "event result without a valid-at clause")
        | Db_type.Historical Db_type.Interval -> (
            let exclusive_end p =
              if Period.is_event p then Chronon.succ (Period.from_ p)
              else Period.to_ p
            in
            match r.valid with
            | Some (Valid_interval (e1, e2)) -> (
                match (Eval.tempexpr ctx e1, Eval.exclusive_end ctx e2) with
                | Some p1, Some to_ ->
                    let from_ = Period.from_ p1 in
                    if Chronon.compare to_ from_ < 0 then None
                    else Some [| Value.Time from_; Value.Time to_ |]
                | _ -> None)
            | _ -> (
                (* default: the overlap of the participating valid periods *)
                let periods =
                  List.filter_map
                    (fun (b : Eval.binding) ->
                      Tuple.valid_period b.schema b.tuple)
                    ctx.Eval.bindings
                in
                match periods with
                | [] -> Some [| Value.Time now; Value.Time Chronon.forever |]
                | p :: rest ->
                    let overlap =
                      List.fold_left
                        (fun acc q ->
                          match acc with
                          | None -> None
                          | Some a -> Period.overlap a q)
                        (Some p) rest
                    in
                    (match overlap with
                    | Some p ->
                        Some
                          [| Value.Time (Period.from_ p);
                             Value.Time (exclusive_end p) |]
                    | None -> None)))
        | Db_type.Rollback | Db_type.Temporal _ -> assert false
      in
      match time_values with
      | Some tv ->
          let tuple = Array.append user_values tv in
          if r.coalesce then coalesce_staged := tuple :: !coalesce_staged
          else deliver tuple
      | None -> ()
    end
  in
  (* Coalescing (non-aggregate): merge value-equivalent staged rows whose
     periods touch or overlap into maximal periods.  The output is
     canonical — sorted by (user values, valid-from) and minimal (no two
     remaining value-equivalent rows touch) — so it is independent of the
     order the plan produced the rows in. *)
  let finalize_coalesce cspan =
    let rows = !coalesce_staged in
    Metric.add m_coalesce_rows_in (List.length rows);
    let n = List.length r.targets in
    let chron = function Value.Time t -> t | _ -> assert false in
    let cmp_user (a : Tuple.t) (b : Tuple.t) =
      let rec go i =
        if i >= n then 0
        else
          let c = Value.compare a.(i) b.(i) in
          if c <> 0 then c else go (i + 1)
      in
      go 0
    in
    let cmp a b =
      let c = cmp_user a b in
      if c <> 0 then c else Chronon.compare (chron a.(n)) (chron b.(n))
    in
    let sorted = List.sort cmp rows in
    let out = ref [] in
    let flush = function
      | None -> ()
      | Some (u, f, t) -> out := (u, f, t) :: !out
    in
    let cur = ref None in
    List.iter
      (fun (row : Tuple.t) ->
        let f = chron row.(n) and t = chron row.(n + 1) in
        match !cur with
        | Some (u, cf, ct) when cmp_user u row = 0 && Chronon.compare f ct <= 0
          ->
            cur := Some (u, cf, Chronon.max ct t)
        | prev ->
            flush prev;
            cur := Some (row, f, t))
      sorted;
    flush !cur;
    List.iter
      (fun (u, f, t) ->
        let tuple = Array.copy u in
        tuple.(n) <- Value.Time f;
        tuple.(n + 1) <- Value.Time t;
        Metric.incr m_coalesce_rows_out;
        Trace.add_tuples cspan 1;
        deliver tuple)
      (List.rev !out)
  in
  (* Temporal aggregation (snapshot semantics): every result chronon [c]
     carries the aggregate folded over exactly the contributions whose
     period contains [c] — i.e. the aggregate of the database snapshot at
     [c].  Sweep the elementary intervals between contribution endpoints,
     fold fresh accumulators per interval, then merge adjacent intervals
     with identical values into maximal constant intervals. *)
  let finalize_temporal_agg cspan =
    let contribs = Array.of_list (List.rev !agg_contribs) in
    Metric.add m_coalesce_rows_in (Array.length contribs);
    if Array.length contribs > 0 then begin
      let module Cs = Set.Make (struct
        type t = Chronon.t

        let compare = Chronon.compare
      end) in
      let bounds =
        Array.fold_left
          (fun acc (f, t, _) -> Cs.add f (Cs.add t acc))
          Cs.empty contribs
      in
      let bounds = Array.of_list (Cs.elements bounds) in
      let out = ref [] in
      for k = 0 to Array.length bounds - 2 do
        let lo = bounds.(k) and hi = bounds.(k + 1) in
        let active =
          Array.to_seq contribs
          |> Seq.filter (fun (f, t, _) ->
                 Chronon.compare f lo <= 0 && Chronon.compare lo t < 0)
          |> List.of_seq
        in
        if active <> [] then begin
          let accs =
            List.map
              (fun a -> fresh_accumulator a.node a.agg a.operand)
              accumulators
          in
          List.iter
            (fun (_, _, vals) ->
              List.iteri (fun j a -> accumulate_value vals.(j) a) accs)
            active;
          let user =
            List.map (fun t -> fold_target accs t.value) r.targets
            |> Array.of_list
          in
          out := (lo, hi, user) :: !out
        end
      done;
      let merged =
        List.fold_left
          (fun acc (lo, hi, user) ->
            match acc with
            | (plo, phi, puser) :: tl
              when Chronon.compare phi lo = 0 && Stdlib.compare puser user = 0
              ->
                (plo, hi, puser) :: tl
            | _ -> (lo, hi, user) :: acc)
          []
          (List.rev !out)
      in
      List.iter
        (fun (lo, hi, user) ->
          Metric.incr m_coalesce_rows_out;
          Trace.add_tuples cspan 1;
          deliver
            (Array.append user [| Value.Time lo; Value.Time hi |]))
        (List.rev merged)
    end
  in
  let temps =
    List.map
      (fun d ->
        let var, detach = d.kind in
        Trace.within d.label (fun tn ->
            let temp, inserted = run_detach detach in
            Trace.add_tuples tn inserted;
            (var, temp)))
      c.detaches
  in
  let resolve = function
    | Stored (rd, admission) -> (rd, admission)
    | Temp var ->
        ( { src = { var; rel = List.assoc var temps }; window = None;
            path = Relation_file.Full_scan; keep = None },
          Inline )
  in
  let stage span down op =
    match op.kind with
    | Nest input ->
        let rd, admission = resolve input in
        expand_stage span
          (fun row push' ->
            drain c.config rd admission (fun t ->
                push' (row @ [ binding rd.src t ])))
          down
    | Probe p ->
        expand_stage span
          (fun row push' ->
            let b =
              List.find (fun (b : Eval.binding) -> b.var = p.p_from) row
            in
            let key = coerce_key ~now p.p_key_type b.tuple.(p.p_from_index) in
            let rd = { p.p_read with path = Relation_file.Key_lookup key } in
            drain c.config rd (admit c.config rd) (fun t ->
                push' (row @ [ binding rd.src t ])))
          down
    | Tjoin tj -> tjoin_stage c.config tj span down
    | Filter residual -> filter_stage ~now residual span down
    | Emit -> emit_stage span emit_row down
    | Coalesce -> finish_stage span finalize_coalesce
    | Temporal_agg -> finish_stage span finalize_temporal_agg
  in
  (* Spans chain under [parent] so the span tree mirrors the stage order. *)
  let rec chain parent = function
    | [] -> terminal
    | op :: rest ->
        let span = Trace.branch parent op.label in
        stage span (chain span rest) op
  in
  (match c.input with
  | None ->
      let sink = chain qnode c.stages in
      sink.push [| [] |];
      sink.close ()
  | Some input ->
      (* The row source's span stays entered for the whole drive (so its
         cursor's page pulls charge to it); downstream stages enter their
         spans once per batch. *)
      let rd, admission = resolve input.kind in
      Trace.within input.label (fun span ->
          let sink = chain span c.stages in
          let push, flush = row_batcher span sink in
          drain c.config rd admission (fun t ->
              Trace.add_tuples span 1;
              push [ binding rd.src t ]);
          flush ();
          sink.close ()));
  if agg_mode && not r.coalesce then
    deliver
      (List.map (fun t -> fold_target accumulators t.value) r.targets
      |> Array.of_list);
  let after =
    List.map (fun s -> Io_stats.snapshot (Relation_file.stats s.rel)) c.sources
  in
  let source_reads =
    List.fold_left2
      (fun acc b a -> acc + (Io_stats.diff ~before:b ~after:a).Io_stats.reads)
      0 before after
  in
  let temp_io =
    List.fold_left
      (fun (r, w) (_, t) ->
        Tdb_storage.Buffer_pool.flush (Relation_file.pool t);
        let s = Io_stats.snapshot (Relation_file.stats t) in
        (r + s.Io_stats.reads, w + s.Io_stats.writes))
      (0, 0) temps
  in
  List.iter (fun (_, t) -> Relation_file.close t) temps;
  {
    schema = result;
    count = !count;
    io =
      {
        input_reads = source_reads + fst temp_io;
        output_writes = snd temp_io;
      };
    plan = c.plan;
    trace = Trace.result qnode;
    parallel = parallel_report c;
    workers = c.config.workers;
  }

let run_retrieve ~config ~now ~sources r ~on_tuple =
  run (compile ~config ~now ~sources r) ~on_tuple
