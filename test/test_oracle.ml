(* Oracle testing: the engine's answers to randomly generated queries must
   match a naive in-memory evaluator, across access methods.  This is the
   broadest correctness net in the suite: it exercises the parser, checker,
   planner (keyed/range/scan/substitution/nested), evaluator and storage
   together, and checks that the *optimized* plans never change answers. *)

module Engine = Tdb_core.Engine
module Database = Tdb_core.Database
module Value = Tdb_relation.Value

let ok = function Ok v -> v | Error e -> Alcotest.failf "unexpected error: %s" e

(* The default execution config at a given fan-out width. *)
let at_workers workers = { Tdb_query.Executor.default_config with workers }
let exec db src = ignore (ok (Engine.execute db src))

(* The data model mirrored in plain OCaml: two tables of (id, amount, seq). *)
type row = { id : int; amount : int; seq : int }

let gen_rows rng n =
  List.init n (fun id ->
      { id; amount = Random.State.int rng 40; seq = Random.State.int rng 5 })

let build_db rows_a rows_b ~org_a ~org_b =
  let db = ok (Database.create ()) in
  exec db
    {|create ta (id = i4, amount = i4, seq = i4)
      create tb (id = i4, amount = i4, seq = i4)
      range of a is ta
      range of b is tb|};
  List.iter
    (fun r ->
      exec db
        (Printf.sprintf "append to ta (id = %d, amount = %d, seq = %d)" r.id
           r.amount r.seq))
    rows_a;
  List.iter
    (fun r ->
      exec db
        (Printf.sprintf "append to tb (id = %d, amount = %d, seq = %d)" r.id
           r.amount r.seq))
    rows_b;
  (match org_a with
  | `Heap -> ()
  | `Hash -> exec db "modify ta to hash on id where fillfactor = 50"
  | `Isam -> exec db "modify ta to isam on id where fillfactor = 50");
  (match org_b with
  | `Heap -> ()
  | `Hash -> exec db "modify tb to hash on id"
  | `Isam -> exec db "modify tb to isam on id");
  db

(* Random single-variable predicates over `a`, as both TQuel text and an
   OCaml function. *)
type cmp = Lt | Le | Eq | Ge | Gt | Ne

let cmp_text = function
  | Lt -> "<" | Le -> "<=" | Eq -> "=" | Ge -> ">=" | Gt -> ">" | Ne -> "!="

let cmp_fn = function
  | Lt -> ( < ) | Le -> ( <= ) | Eq -> ( = ) | Ge -> ( >= ) | Gt -> ( > )
  | Ne -> ( <> )

type atom = { field : [ `Id | `Amount | `Seq ]; op : cmp; const : int }

let field_text = function `Id -> "id" | `Amount -> "amount" | `Seq -> "seq"
let field_get r = function `Id -> r.id | `Amount -> r.amount | `Seq -> r.seq

let gen_atom rng =
  {
    field = List.nth [ `Id; `Amount; `Seq ] (Random.State.int rng 3);
    op = List.nth [ Lt; Le; Eq; Ge; Gt; Ne ] (Random.State.int rng 6);
    const = Random.State.int rng 45;
  }

let atom_text var a =
  Printf.sprintf "%s.%s %s %d" var (field_text a.field) (cmp_text a.op) a.const

let atom_fn a r = cmp_fn a.op (field_get r a.field) a.const

(* a conjunction/disjunction tree of atoms *)
type ptree = Atom of atom | And of ptree * ptree | Or of ptree * ptree

let rec gen_ptree rng depth =
  if depth = 0 || Random.State.int rng 3 = 0 then Atom (gen_atom rng)
  else if Random.State.bool rng then
    And (gen_ptree rng (depth - 1), gen_ptree rng (depth - 1))
  else Or (gen_ptree rng (depth - 1), gen_ptree rng (depth - 1))

let rec ptree_text var = function
  | Atom a -> atom_text var a
  | And (x, y) -> Printf.sprintf "(%s and %s)" (ptree_text var x) (ptree_text var y)
  | Or (x, y) -> Printf.sprintf "(%s or %s)" (ptree_text var x) (ptree_text var y)

let rec ptree_fn p r =
  match p with
  | Atom a -> atom_fn a r
  | And (x, y) -> ptree_fn x r && ptree_fn y r
  | Or (x, y) -> ptree_fn x r || ptree_fn y r

let run_query db src =
  match ok (Engine.execute_one db src) with
  | Engine.Rows { tuples; _ } ->
      List.sort compare
        (List.map
           (fun tu ->
             Array.to_list
               (Array.map
                  (function Value.Int n -> n | _ -> Alcotest.fail "int expected")
                  tu))
           tuples)
  | _ -> Alcotest.fail "expected rows"

let orgs = [ `Heap; `Hash; `Isam ]

let test_single_variable_oracle () =
  let rng = Random.State.make [| 4242 |] in
  for trial = 1 to 60 do
    let rows = gen_rows rng (20 + Random.State.int rng 60) in
    let org = List.nth orgs (trial mod 3) in
    let db = build_db rows [] ~org_a:org ~org_b:`Heap in
    let p = gen_ptree rng 2 in
    let src =
      Printf.sprintf "retrieve (a.id, a.seq) where %s" (ptree_text "a" p)
    in
    let got = run_query db src in
    let want =
      List.sort compare
        (List.filter_map
           (fun r -> if ptree_fn p r then Some [ r.id; r.seq ] else None)
           rows)
    in
    if got <> want then
      Alcotest.failf "trial %d diverged on %s (%d vs %d rows)" trial src
        (List.length got) (List.length want)
  done

let test_join_oracle () =
  let rng = Random.State.make [| 777 |] in
  for trial = 1 to 30 do
    let rows_a = gen_rows rng 40 and rows_b = gen_rows rng 40 in
    let org_a = List.nth orgs (trial mod 3) in
    let org_b = List.nth orgs ((trial / 3) mod 3) in
    let db = build_db rows_a rows_b ~org_a ~org_b in
    let pa = Atom (gen_atom rng) and pb = Atom (gen_atom rng) in
    (* join on a.id = b.amount: exercises tuple substitution when `a` is
       keyed, detach-both / nested otherwise *)
    let src =
      Printf.sprintf
        "retrieve (a.id, b.id) where a.id = b.amount and %s and %s"
        (ptree_text "a" pa) (ptree_text "b" pb)
    in
    let got = run_query db src in
    let want =
      List.sort compare
        (List.concat_map
           (fun ra ->
             List.filter_map
               (fun rb ->
                 if ra.id = rb.amount && ptree_fn pa ra && ptree_fn pb rb then
                   Some [ ra.id; rb.id ]
                 else None)
               rows_b)
           rows_a)
    in
    if got <> want then
      Alcotest.failf "join trial %d diverged on %s (%d vs %d rows)" trial src
        (List.length got) (List.length want)
  done

let test_range_oracle () =
  let rng = Random.State.make [| 909 |] in
  for trial = 1 to 30 do
    let rows = gen_rows rng 80 in
    let db = build_db rows [] ~org_a:`Isam ~org_b:`Heap in
    let lo = Random.State.int rng 80 and span = Random.State.int rng 30 in
    let src =
      Printf.sprintf "retrieve (a.id) where a.id >= %d and a.id < %d" lo
        (lo + span)
    in
    let got = run_query db src in
    let want =
      List.sort compare
        (List.filter_map
           (fun r -> if r.id >= lo && r.id < lo + span then Some [ r.id ] else None)
           rows)
    in
    if got <> want then
      Alcotest.failf "range trial %d diverged on %s" trial src
  done

let test_aggregate_oracle () =
  let rng = Random.State.make [| 1331 |] in
  for trial = 1 to 30 do
    let rows = gen_rows rng 50 in
    let db = build_db rows [] ~org_a:(List.nth orgs (trial mod 3)) ~org_b:`Heap in
    let p = gen_ptree rng 1 in
    let src =
      Printf.sprintf "retrieve (c = count(a.id), s = sum(a.amount)) where %s"
        (ptree_text "a" p)
    in
    let qualifying = List.filter (ptree_fn p) rows in
    let want =
      [ [ List.length qualifying;
          List.fold_left (fun acc r -> acc + r.amount) 0 qualifying ] ]
    in
    let got = run_query db src in
    if got <> want then Alcotest.failf "aggregate trial %d diverged on %s" trial src
  done

(* ====================================================================== *)
(* Temporal oracle: random histories over all four database types         *)
(* (static, rollback, historical, temporal), random temporal retrieves    *)
(* (where / when / valid / as of), checked against a naive in-memory      *)
(* model of the TQuel update and retrieve semantics.  Every query is      *)
(* executed through BOTH the sequential and the parallel executor, which  *)
(* must return exactly the same rows in the same order.                   *)
(*                                                                        *)
(* Failures are reproducible: the report names the RNG seed (settable    *)
(* via TDB_ORACLE_SEED) and prints the full generated statement script.  *)
(* ====================================================================== *)

module Chronon = Tdb_time.Chronon
module Period = Tdb_time.Period

let oracle_seed =
  match Sys.getenv_opt "TDB_ORACLE_SEED" with
  | None -> 60102
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> n
      | None -> Alcotest.failf "TDB_ORACLE_SEED must be an integer, got %S" s)

let oracle_report ~seed ~script ~query ~detail =
  Printf.sprintf
    "temporal oracle mismatch (replay with TDB_ORACLE_SEED=%d)\n\
     --- generated statement script ---\n\
     %s\
     --- failing query ---\n\
     %s\n\
     --- detail ---\n\
     %s"
    seed script query detail

(* --- the four database types of the paper --- *)

type db_kind = K_static | K_rollback | K_historical | K_temporal

let kind_has_valid = function K_historical | K_temporal -> true | _ -> false
let kind_has_tx = function K_rollback | K_temporal -> true | _ -> false

let create_text = function
  | K_static -> "create tr (id = i4, amount = i4)"
  | K_rollback -> "create persistent tr (id = i4, amount = i4)"
  | K_historical -> "create interval tr (id = i4, amount = i4)"
  | K_temporal -> "create persistent interval tr (id = i4, amount = i4)"

(* Time literals: offsets in seconds from the session clock's base, so
   generated valid/as-of constants straddle the statement timestamps. *)
let t_base = Chronon.parse_exn "1980-01-01"
let chron n = Chronon.add_seconds t_base n
let tlit n = Chronon.to_string (chron n)

(* --- the model: a list of versions mirroring the stored tuples --- *)

type version = {
  mutable m_id : int;
  mutable m_amount : int;
  mutable v_from : Chronon.t;  (* meaningful iff the kind has valid time *)
  mutable v_to : Chronon.t;
  mutable tx_from : Chronon.t; (* meaningful iff the kind has tx time *)
  mutable tx_to : Chronon.t;
}

(* Effective periods, with the same degenerate-interval rule as
   [Tuple.valid_period]: a stop before the start reads as an event at the
   start. *)
let eff_period from_ to_ =
  if Chronon.compare to_ from_ < 0 then Period.at from_
  else Period.make from_ to_

let eff_valid v = eff_period v.v_from v.v_to
let eff_tx v = eff_period v.tx_from v.tx_to

(* --- random where clauses over the two user attributes --- *)

type tfield = F_id | F_amount

type twhere =
  | W_atom of tfield * cmp * int
  | W_and of twhere * twhere
  | W_or of twhere * twhere

let tfield_text = function F_id -> "id" | F_amount -> "amount"
let tfield_get v = function F_id -> v.m_id | F_amount -> v.m_amount

let rec twhere_text = function
  | W_atom (f, op, k) ->
      Printf.sprintf "t.%s %s %d" (tfield_text f) (cmp_text op) k
  | W_and (a, b) -> Printf.sprintf "(%s and %s)" (twhere_text a) (twhere_text b)
  | W_or (a, b) -> Printf.sprintf "(%s or %s)" (twhere_text a) (twhere_text b)

let rec twhere_fn p v =
  match p with
  | W_atom (f, op, k) -> cmp_fn op (tfield_get v f) k
  | W_and (a, b) -> twhere_fn a v && twhere_fn b v
  | W_or (a, b) -> twhere_fn a v || twhere_fn b v

let gen_tatom rng =
  W_atom
    ( (if Random.State.bool rng then F_id else F_amount),
      List.nth [ Lt; Le; Eq; Ge; Gt; Ne ] (Random.State.int rng 6),
      Random.State.int rng 40 )

let rec gen_twhere rng depth =
  if depth = 0 || Random.State.int rng 2 = 0 then gen_tatom rng
  else if Random.State.bool rng then
    W_and (gen_twhere rng (depth - 1), gen_twhere rng (depth - 1))
  else W_or (gen_twhere rng (depth - 1), gen_twhere rng (depth - 1))

(* --- random when clauses: temporal predicates over the valid period --- *)

type texpr = T_var | T_const of int

type twhen =
  | T_overlap of texpr * texpr
  | T_precede of texpr * texpr
  | T_equal of texpr * texpr
  | T_and of twhen * twhen
  | T_or of twhen * twhen
  | T_not of twhen

let texpr_text = function
  | T_var -> "t"
  | T_const n -> Printf.sprintf "%S" (tlit n)

let rec twhen_text = function
  | T_overlap (a, b) ->
      Printf.sprintf "%s overlap %s" (texpr_text a) (texpr_text b)
  | T_precede (a, b) ->
      Printf.sprintf "%s precede %s" (texpr_text a) (texpr_text b)
  | T_equal (a, b) -> Printf.sprintf "%s equal %s" (texpr_text a) (texpr_text b)
  | T_and (a, b) -> Printf.sprintf "(%s and %s)" (twhen_text a) (twhen_text b)
  | T_or (a, b) -> Printf.sprintf "(%s or %s)" (twhen_text a) (twhen_text b)
  | T_not a -> Printf.sprintf "not (%s)" (twhen_text a)

let texpr_period vp = function T_var -> vp | T_const n -> Period.at (chron n)

let rec twhen_fn vp = function
  | T_overlap (a, b) -> Period.overlaps (texpr_period vp a) (texpr_period vp b)
  | T_precede (a, b) -> Period.precede (texpr_period vp a) (texpr_period vp b)
  | T_equal (a, b) -> Period.equal (texpr_period vp a) (texpr_period vp b)
  | T_and (a, b) -> twhen_fn vp a && twhen_fn vp b
  | T_or (a, b) -> twhen_fn vp a || twhen_fn vp b
  | T_not a -> not (twhen_fn vp a)

let gen_texpr rng =
  if Random.State.bool rng then T_var else T_const (Random.State.int rng 400)

let gen_twhen_atom rng =
  let a = gen_texpr rng and b = gen_texpr rng in
  (* All-constant predicates are legal but degenerate; mostly make the
     tuple variable appear on one side. *)
  let a =
    match (a, b) with
    | T_const _, T_const _ when Random.State.int rng 3 > 0 -> T_var
    | _ -> a
  in
  match Random.State.int rng 3 with
  | 0 -> T_overlap (a, b)
  | 1 -> T_precede (a, b)
  | _ -> T_equal (a, b)

let rec gen_twhen rng depth =
  if depth = 0 || Random.State.int rng 2 = 0 then gen_twhen_atom rng
  else
    match Random.State.int rng 3 with
    | 0 -> T_and (gen_twhen rng (depth - 1), gen_twhen rng (depth - 1))
    | 1 -> T_or (gen_twhen rng (depth - 1), gen_twhen rng (depth - 1))
    | _ -> T_not (gen_twhen rng (depth - 1))

(* --- random modification statements --- *)

type valid_iv = { vlo : int; vhi : int }  (* ordered offsets *)

let gen_valid_iv rng =
  let a = Random.State.int rng 400 and b = Random.State.int rng 400 in
  { vlo = min a b; vhi = max a b }

let valid_iv_text { vlo; vhi } =
  Printf.sprintf " valid from %S to %S" (tlit vlo) (tlit vhi)

type op =
  | Op_append of { id : int; amount : int; valid : valid_iv option }
  | Op_delete of { where : twhere option; when_ : twhen option }
  | Op_replace of {
      new_id : int option;
      new_amount : int;
      valid : valid_iv option;
      where : twhere option;
      when_ : twhen option;
    }

let where_text = function Some w -> " where " ^ twhere_text w | None -> ""
let when_text = function Some p -> " when " ^ twhen_text p | None -> ""

let op_text = function
  | Op_append { id; amount; valid } ->
      Printf.sprintf "append to tr (id = %d, amount = %d)%s" id amount
        (match valid with Some iv -> valid_iv_text iv | None -> "")
  | Op_delete { where; when_ } ->
      "delete t" ^ where_text where ^ when_text when_
  | Op_replace { new_id; new_amount; valid; where; when_ } ->
      Printf.sprintf "replace t (%samount = %d)%s%s%s"
        (match new_id with
        | Some i -> Printf.sprintf "id = %d, " i
        | None -> "")
        new_amount
        (match valid with Some iv -> valid_iv_text iv | None -> "")
        (where_text where) (when_text when_)

let gen_append rng kind =
  Op_append
    {
      id = Random.State.int rng 9;
      amount = Random.State.int rng 35;
      valid =
        (if kind_has_valid kind && Random.State.int rng 10 < 6 then
           Some (gen_valid_iv rng)
         else None);
    }

(* [allow_id_change] is false on keyed organizations: a static in-place
   replace of the key attribute would strand the tuple in its old bucket,
   which is outside what these histories mean to exercise. *)
let gen_op rng kind ~allow_id_change =
  match Random.State.int rng 4 with
  | 0 | 1 -> gen_append rng kind
  | 2 ->
      Op_delete
        {
          where =
            (if Random.State.int rng 10 < 8 then Some (gen_twhere rng 1)
             else None);
          when_ =
            (if kind_has_valid kind && Random.State.int rng 10 < 4 then
               Some (gen_twhen rng 1)
             else None);
        }
  | _ ->
      Op_replace
        {
          new_id =
            (if allow_id_change && Random.State.int rng 4 = 0 then
               Some (Random.State.int rng 9)
             else None);
          new_amount = Random.State.int rng 35;
          valid =
            (if kind_has_valid kind && Random.State.int rng 10 < 4 then
               Some (gen_valid_iv rng)
             else None);
          where =
            (if Random.State.int rng 10 < 8 then Some (gen_twhere rng 1)
             else None);
          when_ =
            (if kind_has_valid kind && Random.State.int rng 10 < 3 then
               Some (gen_twhen rng 1)
             else None);
        }

(* --- applying a modification to the model (mirrors update_executor) --- *)

let modifiable kind ~now v =
  ((not (kind_has_tx kind)) || Chronon.is_forever v.tx_to)
  && ((not (kind_has_valid kind)) || Chronon.compare now v.v_to < 0)

let op_qualifies kind ~now ~where ~when_ v =
  modifiable kind ~now v
  && (match where with Some w -> twhere_fn w v | None -> true)
  && match when_ with Some p -> twhen_fn (eff_valid v) p | None -> true

let apply_op kind model ~now op =
  match op with
  | Op_append { id; amount; valid } ->
      let v_from, v_to =
        match valid with
        | Some { vlo; vhi } when kind_has_valid kind -> (chron vlo, chron vhi)
        | _ -> (now, Chronon.forever)
      in
      model :=
        !model
        @ [ { m_id = id; m_amount = amount; v_from; v_to; tx_from = now;
              tx_to = Chronon.forever } ]
  | Op_delete { where; when_ } -> (
      let victims = List.filter (op_qualifies kind ~now ~where ~when_) !model in
      match kind with
      | K_static ->
          model := List.filter (fun v -> not (List.memq v victims)) !model
      | K_rollback -> List.iter (fun v -> v.tx_to <- now) victims
      | K_historical -> List.iter (fun v -> v.v_to <- now) victims
      | K_temporal ->
          List.iter
            (fun v ->
              v.tx_to <- now;
              model :=
                !model
                @ [ { m_id = v.m_id; m_amount = v.m_amount; v_from = v.v_from;
                      v_to = now; tx_from = now; tx_to = Chronon.forever } ])
            victims)
  | Op_replace { new_id; new_amount; valid; where; when_ } ->
      let victims = List.filter (op_qualifies kind ~now ~where ~when_) !model in
      let fresh_valid () =
        match valid with
        | Some { vlo; vhi } when kind_has_valid kind -> (chron vlo, chron vhi)
        | _ -> (now, Chronon.forever)
      in
      List.iter
        (fun v ->
          let id = match new_id with Some i -> i | None -> v.m_id in
          match kind with
          | K_static ->
              v.m_id <- id;
              v.m_amount <- new_amount
          | K_rollback ->
              v.tx_to <- now;
              model :=
                !model
                @ [ { m_id = id; m_amount = new_amount; v_from = now;
                      v_to = Chronon.forever; tx_from = now;
                      tx_to = Chronon.forever } ]
          | K_historical ->
              v.v_to <- now;
              let v_from, v_to = fresh_valid () in
              model :=
                !model
                @ [ { m_id = id; m_amount = new_amount; v_from; v_to;
                      tx_from = now; tx_to = Chronon.forever } ]
          | K_temporal ->
              v.tx_to <- now;
              model :=
                !model
                @ [ { m_id = v.m_id; m_amount = v.m_amount; v_from = v.v_from;
                      v_to = now; tx_from = now; tx_to = Chronon.forever } ];
              let v_from, v_to = fresh_valid () in
              model :=
                !model
                @ [ { m_id = id; m_amount = new_amount; v_from; v_to;
                      tx_from = now; tx_to = Chronon.forever } ])
        victims

(* --- random retrieves --- *)

type qvalid = QV_interval of int * int (* may be reversed *) | QV_event of int

type oquery = {
  q_where : twhere option;
  q_when : twhen option;
  q_valid : qvalid option;
  q_as_of : (int * int option) option;
}

let query_text q =
  "retrieve (t.id, t.amount)"
  ^ (match q.q_valid with
    | Some (QV_interval (a, b)) ->
        Printf.sprintf " valid from %S to %S" (tlit a) (tlit b)
    | Some (QV_event a) -> Printf.sprintf " valid at %S" (tlit a)
    | None -> "")
  ^ where_text q.q_where ^ when_text q.q_when
  ^
  match q.q_as_of with
  | Some (a, None) -> Printf.sprintf " as of %S" (tlit a)
  | Some (a, Some b) ->
      Printf.sprintf " as of %S through %S" (tlit a) (tlit b)
  | None -> ""

(* The model's answer, mirroring the executor: the as-of window filters on
   the transaction period (default window: the event at [now]); where and
   when filter on user values and the valid period; an explicit valid
   clause replaces the implicit time columns (a reversed interval drops
   the row); the default time columns are the valid period rendered as
   [from, exclusive end). *)
let model_rows kind model ~now q =
  let window =
    match q.q_as_of with
    | None -> Period.at now
    | Some (a, None) -> Period.at (chron a)
    | Some (a, Some b) -> Period.make (chron a) (Chronon.succ (chron b))
  in
  List.filter_map
    (fun v ->
      let tx_ok =
        (not (kind_has_tx kind)) || Period.overlaps (eff_tx v) window
      in
      let where_ok =
        match q.q_where with Some w -> twhere_fn w v | None -> true
      in
      let when_ok =
        match q.q_when with Some p -> twhen_fn (eff_valid v) p | None -> true
      in
      if not (tx_ok && where_ok && when_ok) then None
      else
        let user = [ Value.Int v.m_id; Value.Int v.m_amount ] in
        match q.q_valid with
        | Some (QV_event a) -> Some (user @ [ Value.Time (chron a) ])
        | Some (QV_interval (a, b)) ->
            if b < a then None (* interval ends before it starts: dropped *)
            else Some (user @ [ Value.Time (chron a); Value.Time (chron b) ])
        | None ->
            if kind_has_valid kind then
              let p = eff_valid v in
              let from_ = Period.from_ p in
              let to_ =
                if Period.is_event p then Chronon.succ from_ else Period.to_ p
              in
              Some (user @ [ Value.Time from_; Value.Time to_ ])
            else Some user)
    !model

let render_row row = String.concat " | " (List.map Value.to_string row)

(* Run one retrieve through both executor paths.  The rows are compared as
   rendered strings so a mismatch report is directly readable. *)
let run_both db src =
  let rows workers =
    match Engine.execute_one ~config:(at_workers workers) db src with
    | Ok (Engine.Rows { tuples; _ }) ->
        Ok
          (List.map (fun tu -> render_row (Array.to_list tu)) tuples)
    | Ok _ -> Error "expected rows"
    | Error e -> Error ("engine error: " ^ e)
  in
  (rows 1, rows 4)

let verify_rows ~seq ~par ~model_rows =
  match (seq, par) with
  | (Error e, _ | _, Error e) -> Error e
  | Ok seq, Ok par ->
      if seq <> par then
        Error
          (Printf.sprintf
             "sequential and parallel executors disagree:\n\
              sequential (%d rows):\n%s\nparallel (%d rows):\n%s"
             (List.length seq)
             (String.concat "\n" seq)
             (List.length par)
             (String.concat "\n" par))
      else
        let got = List.sort compare seq
        and want = List.sort compare model_rows in
        if got <> want then
          Error
            (Printf.sprintf
               "engine disagrees with the model:\n\
                engine (%d rows):\n%s\nmodel (%d rows):\n%s"
               (List.length got)
               (String.concat "\n" got)
               (List.length want)
               (String.concat "\n" want))
        else Ok ()

let test_temporal_oracle () =
  let rng = Random.State.make [| oracle_seed |] in
  let seen_where = ref 0 and seen_when = ref 0 in
  let seen_valid = ref 0 and seen_as_of = ref 0 in
  let kinds =
    List.concat_map
      (fun k -> [ k; k; k; k ])
      [ K_static; K_rollback; K_historical; K_temporal ]
  in
  List.iteri
    (fun trial kind ->
      let db = ok (Database.create ()) in
      let script = Buffer.create 4096 in
      let model = ref [] in
      let fail_with ~query detail =
        Alcotest.fail
          (oracle_report ~seed:oracle_seed ~script:(Buffer.contents script)
             ~query ~detail)
      in
      let exec_stmt s =
        Buffer.add_string script s;
        Buffer.add_char script '\n';
        match Engine.execute_one db s with
        | Ok _ -> ()
        | Error e -> fail_with ~query:s ("statement failed: " ^ e)
      in
      let run_op op =
        exec_stmt (op_text op);
        (* Modifications tick the clock before executing, so reading the
           clock afterwards gives the [now] the statement used. *)
        apply_op kind model ~now:(Database.now db) op
      in
      exec_stmt (create_text kind);
      exec_stmt "range of t is tr";
      let allow_id_change = trial mod 3 = 0 in
      for _ = 1 to 60 + Random.State.int rng 60 do
        run_op (gen_append rng kind)
      done;
      (match trial mod 3 with
      | 1 -> exec_stmt "modify tr to hash on id where fillfactor = 50"
      | 2 -> exec_stmt "modify tr to isam on id where fillfactor = 80"
      | _ -> ());
      for _ = 1 to 10 + Random.State.int rng 10 do
        run_op (gen_op rng kind ~allow_id_change)
      done;
      for _ = 1 to 8 do
        let q =
          {
            q_where =
              (if Random.State.int rng 10 < 6 then begin
                 incr seen_where;
                 Some (gen_twhere rng 2)
               end
               else None);
            q_when =
              (if kind_has_valid kind && Random.State.int rng 2 = 0 then begin
                 incr seen_when;
                 Some (gen_twhen rng 1)
               end
               else None);
            q_valid =
              (if Random.State.int rng 10 < 4 then begin
                 incr seen_valid;
                 if Random.State.int rng 4 = 0 then
                   Some (QV_event (Random.State.int rng 400))
                 else
                   let a = Random.State.int rng 400
                   and b = Random.State.int rng 400 in
                   let lo = min a b and hi = max a b in
                   if Random.State.int rng 5 = 0 && lo < hi then
                     Some (QV_interval (hi, lo))
                   else Some (QV_interval (lo, hi))
               end
               else None);
            q_as_of =
              (if kind_has_tx kind && Random.State.int rng 2 = 0 then begin
                 incr seen_as_of;
                 let a = Random.State.int rng 120 in
                 if Random.State.bool rng then Some (a, None)
                 else Some (a, Some (a + Random.State.int rng 60))
               end
               else None);
          }
        in
        let src = query_text q in
        Buffer.add_string script src;
        Buffer.add_char script '\n';
        let seq, par = run_both db src in
        let want =
          List.map render_row (model_rows kind model ~now:(Database.now db) q)
        in
        match verify_rows ~seq ~par ~model_rows:want with
        | Ok () -> ()
        | Error detail -> fail_with ~query:src detail
      done)
    kinds;
  (* The run must actually have covered all four clause kinds. *)
  List.iter
    (fun (name, n) ->
      if !n = 0 then
        Alcotest.failf "oracle never generated a %s clause (seed %d)" name
          oracle_seed)
    [ ("where", seen_where); ("when", seen_when); ("valid", seen_valid);
      ("as of", seen_as_of) ]

let test_oracle_mismatch_reporting () =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  (* A forced sequential/parallel divergence surfaces through the same
     reporting path the oracle uses, naming the seed and the script. *)
  let detail =
    match
      verify_rows ~seq:(Ok [ "1 | 2" ]) ~par:(Ok [ "1 | 3" ])
        ~model_rows:[ "1 | 2" ]
    with
    | Error d -> d
    | Ok () -> Alcotest.fail "expected a mismatch"
  in
  let report =
    oracle_report ~seed:4321 ~script:"append to tr (id = 1, amount = 2)\n"
      ~query:"retrieve (t.id, t.amount)" ~detail
  in
  Alcotest.(check bool) "report names the seed" true
    (contains report "TDB_ORACLE_SEED=4321");
  Alcotest.(check bool) "report carries the script" true
    (contains report "append to tr (id = 1, amount = 2)");
  Alcotest.(check bool) "report carries the failing query" true
    (contains report "retrieve (t.id, t.amount)");
  Alcotest.(check bool) "report explains the divergence" true
    (contains report "disagree");
  (* A forced model divergence is reported too. *)
  match
    verify_rows ~seq:(Ok [ "1 | 2" ]) ~par:(Ok [ "1 | 2" ]) ~model_rows:[]
  with
  | Error d ->
      Alcotest.(check bool) "model mismatch mentions the model" true
        (contains d "model")
  | Ok () -> Alcotest.fail "expected a model mismatch"

(* Scale-10 probe oracle: the paper workload at ten times the paper's
   row count, queried through randomized keyed and range probes with the
   admission floor dropped to zero so every eligible probe fans out
   across the pool.  Two invariants per query: the 4-worker rows are
   verbatim the sequential rows, and the folded per-partition read
   counters equal the sequential cold-pool read counts exactly. *)
let test_scale10_parallel_probes () =
  let module Workload = Tdb_benchkit.Workload in
  let module Evolve = Tdb_benchkit.Evolve in
  let module Executor = Tdb_query.Executor in
  let module Relation_file = Tdb_storage.Relation_file in
  let module Buffer_pool = Tdb_storage.Buffer_pool in
  let w =
    Workload.build ~scale:10 ~kind:Workload.Temporal ~loading:100 ~seed:77 ()
  in
  for round = 1 to 2 do
    Evolve.uniform_round w ~round
  done;
  let db = w.Workload.db in
  let chill () =
    List.iter
      (fun name ->
        match Database.find_relation db name with
        | Some rel -> Buffer_pool.invalidate (Relation_file.pool rel)
        | None -> ())
      (Database.relation_names db)
  in
  let measure src workers =
    chill ();
    Database.reset_io db;
    match
      Engine.execute_one ~config:{ (at_workers workers) with floor = 0 } db src
    with
    | Ok (Engine.Rows { tuples; io; _ }) ->
        ( List.map
            (fun tu ->
              String.concat "|"
                (Array.to_list (Array.map Value.to_string tu)))
            tuples,
          io.Tdb_query.Executor.input_reads )
    | Ok _ -> Alcotest.failf "expected rows: %s" src
    | Error e -> Alcotest.failf "query failed (%s): %s" e src
  in
  let rng = Random.State.make [| 8086 |] in
  let n_ids = Workload.n_tuples * 10 in
  let gen_query () =
    let var = if Random.State.bool rng then "h" else "i" in
    let probe =
      match Random.State.int rng 3 with
      | 0 -> Printf.sprintf "%s.id = %d" var (Random.State.int rng n_ids)
      | 1 ->
          let lo = Random.State.int rng n_ids in
          let hi = min (n_ids - 1) (lo + 1 + Random.State.int rng 400) in
          Printf.sprintf "%s.id >= %d and %s.id <= %d" var lo var hi
      | _ ->
          let hi = Random.State.int rng n_ids in
          Printf.sprintf "%s.id <= %d and %s.id >= %d" var hi var
            (max 0 (hi - 200))
    in
    let temporal =
      match Random.State.int rng 4 with
      | 0 -> Printf.sprintf {| when %s overlap "now"|} var
      | 1 -> {| as of "08:00 1/1/80"|}
      | 2 -> {| as of "now"|}
      | _ -> ""
    in
    Printf.sprintf "retrieve (%s.id, %s.seq, %s.amount) where %s%s" var var
      var probe temporal
  in
  for _ = 1 to 40 do
    let src = gen_query () in
    let rows_seq, reads_seq = measure src 1 in
    let rows_par, reads_par = measure src 4 in
    if rows_seq <> rows_par then
      Alcotest.failf
        "scale-10 probe rows diverge (%s):\nsequential (%d rows)\nparallel \
         (%d rows)"
        src (List.length rows_seq) (List.length rows_par);
    if reads_seq <> reads_par then
      Alcotest.failf "scale-10 probe reads diverge (%s): %d seq vs %d par" src
        reads_seq reads_par
  done

(* ====================================================================== *)
(* Temporal-join oracle: random valid-time histories on two relations,    *)
(* random Allen-classifiable when clauses.  Three invariants per query:   *)
(* the temporal-join plan's rows are VERBATIM the nested-loop rows (same  *)
(* order), the 4-worker rows are verbatim the sequential rows, and the    *)
(* user columns match a naive cross-product model.                        *)
(* ====================================================================== *)

type jatom = {
  j_ep_l : [ `Whole | `Start | `End ];
  j_ep_r : [ `Whole | `Start | `End ];
  j_op : [ `Overlap | `Equal | `Precede ];
}

let jatom_text a =
  let ep e v =
    match e with
    | `Whole -> v
    | `Start -> "start of " ^ v
    | `End -> "end of " ^ v
  in
  let op =
    match a.j_op with
    | `Overlap -> "overlap"
    | `Equal -> "equal"
    | `Precede -> "precede"
  in
  Printf.sprintf "%s %s %s" (ep a.j_ep_l "h") op (ep a.j_ep_r "i")

let jatom_fn a pl pr =
  let ep e p =
    match e with
    | `Whole -> p
    | `Start -> Period.start_of p
    | `End -> Period.end_of p
  in
  let l = ep a.j_ep_l pl and r = ep a.j_ep_r pr in
  match a.j_op with
  | `Overlap -> Period.overlaps l r
  | `Equal -> Period.equal l r
  | `Precede -> Period.precede l r

let gen_jatom rng =
  let ep () =
    match Random.State.int rng 4 with
    | 0 -> `Start
    | 1 -> `End
    | _ -> `Whole
  in
  {
    j_ep_l = ep ();
    j_ep_r = ep ();
    j_op =
      List.nth [ `Overlap; `Equal; `Precede ] (Random.State.int rng 3);
  }

let test_temporal_join_oracle () =
  let module Executor = Tdb_query.Executor in
  let rng = Random.State.make [| oracle_seed + 17 |] in
  for trial = 1 to 24 do
    let db = ok (Database.create ()) in
    exec db
      {|create interval th (id = i4, amount = i4)
        create interval ti (id = i4, amount = i4)
        range of h is th
        range of i is ti|};
    let gen_side rel n =
      List.init n (fun _ ->
          let id = Random.State.int rng 8
          and amount = Random.State.int rng 6 in
          let lo = Random.State.int rng 300 in
          let hi = lo + Random.State.int rng 150 in
          (* hi = lo appends a degenerate interval: stored as an event *)
          exec db
            (Printf.sprintf
               {|append to %s (id = %d, amount = %d) valid from %S to %S|}
               rel id amount (tlit lo) (tlit hi));
          (id, amount, eff_period (chron lo) (chron hi)))
    in
    let hs = gen_side "th" (10 + Random.State.int rng 30) in
    let is_ = gen_side "ti" (10 + Random.State.int rng 30) in
    if trial mod 3 = 0 then exec db "modify ti to isam on id where fillfactor = 50";
    let atom = gen_jatom rng in
    let equi = Random.State.int rng 3 = 0 in
    let src =
      Printf.sprintf
        {|retrieve (h.id, i.id, h.amount) valid from %S to %S %swhen %s|}
        (tlit 0) (tlit 500)
        (if equi then "where h.amount = i.amount " else "")
        (jatom_text atom)
    in
    let run ~workers ~temporal_join =
      match
        Engine.execute_one
          ~config:{ (at_workers workers) with temporal_join }
          db src
      with
      | Ok (Engine.Rows { tuples; plan; _ }) ->
          ( List.map (fun tu -> render_row (Array.to_list tu)) tuples,
            Tdb_query.Plan.to_string plan )
      | Ok _ -> Alcotest.failf "expected rows: %s" src
      | Error e -> Alcotest.failf "query failed (%s): %s" e src
    in
    let rows_tj, plan_tj = run ~workers:1 ~temporal_join:true in
    let rows_nl, plan_nl = run ~workers:1 ~temporal_join:false in
    let rows_tj4, _ = run ~workers:4 ~temporal_join:true in
    (* the plans really are different strategies for the same query *)
    if String.length plan_tj < 8 || String.sub plan_tj 0 8 <> "temporal" then
      Alcotest.failf "trial %d (%s): wanted a temporal join, got %s" trial src
        plan_tj;
    if String.length plan_nl >= 8 && String.sub plan_nl 0 8 = "temporal" then
      Alcotest.failf "trial %d: toggle off still picked %s" trial plan_nl;
    if rows_tj <> rows_nl then
      Alcotest.failf
        "trial %d (seed %d): temporal join and nested loop diverge on %s\n\
         tjoin (%s, %d rows):\n%s\nnested (%s, %d rows):\n%s"
        trial oracle_seed src plan_tj (List.length rows_tj)
        (String.concat "\n" rows_tj)
        plan_nl (List.length rows_nl)
        (String.concat "\n" rows_nl);
    if rows_tj <> rows_tj4 then
      Alcotest.failf "trial %d: 4-worker rows diverge on %s" trial src;
    (* naive cross-product model over the user columns *)
    let want =
      List.concat_map
        (fun (hid, hamt, hp) ->
          List.filter_map
            (fun (iid, iamt, ip) ->
              if jatom_fn atom hp ip && ((not equi) || hamt = iamt) then
                Some
                  (render_row
                     [ Value.Int hid; Value.Int iid; Value.Int hamt;
                       Value.Time (chron 0); Value.Time (chron 500) ])
              else None)
            is_)
        hs
    in
    let got = List.sort compare rows_tj and want = List.sort compare want in
    if got <> want then
      Alcotest.failf
        "trial %d (seed %d): engine disagrees with the model on %s (%d vs %d \
         rows)"
        trial oracle_seed src (List.length got) (List.length want)
  done

(* ====================================================================== *)
(* Snapshot-semantics oracle (the reduction used by Dignös et al.): a     *)
(* coalesced result restricted to any time point must equal the           *)
(* non-temporal evaluation over the snapshot at that point — distinct     *)
(* user rows for plain retrieves, folded aggregates for aggregate ones.   *)
(* ====================================================================== *)

let test_snapshot_semantics_oracle () =
  let rng = Random.State.make [| oracle_seed + 23 |] in
  for trial = 1 to 16 do
    let db = ok (Database.create ()) in
    let script = Buffer.create 2048 in
    let model = ref [] in
    let exec_stmt s =
      Buffer.add_string script s;
      Buffer.add_char script '\n';
      match Engine.execute_one db s with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "statement failed (%s): %s" e s
    in
    let run_op op =
      exec_stmt (op_text op);
      apply_op K_historical model ~now:(Database.now db) op
    in
    exec_stmt (create_text K_historical);
    exec_stmt "range of t is tr";
    for _ = 1 to 25 + Random.State.int rng 30 do
      run_op (gen_append rng K_historical)
    done;
    if trial mod 3 = 1 then exec_stmt "modify tr to hash on id where fillfactor = 50";
    for _ = 1 to 6 + Random.State.int rng 6 do
      run_op (gen_op rng K_historical ~allow_id_change:false)
    done;
    let where = if Random.State.bool rng then Some (gen_twhere rng 1) else None in
    let live v =
      (match where with Some w -> twhere_fn w v | None -> true)
    in
    (* sample points: every version endpoint, its neighbors, and noise *)
    let samples =
      List.concat_map
        (fun v ->
          [ v.v_from; Chronon.succ v.v_from; v.v_to; Chronon.succ v.v_to ])
        !model
      @ List.init 20 (fun _ -> chron (Random.State.int rng 500))
    in
    let snapshot_at c =
      List.filter
        (fun v -> live v && Period.contains (eff_valid v) c)
        !model
    in
    let structured ?config src =
      match Engine.execute_one ?config db src with
      | Ok (Engine.Rows { tuples; _ }) -> tuples
      | Ok _ -> Alcotest.failf "expected rows: %s" src
      | Error e -> Alcotest.failf "query failed (%s): %s" e src
    in
    let fail_at src c detail =
      Alcotest.fail
        (oracle_report ~seed:oracle_seed ~script:(Buffer.contents script)
           ~query:src
           ~detail:
             (Printf.sprintf "at chronon %s: %s" (Chronon.to_string c) detail))
    in
    let row_period tu =
      let n = Array.length tu in
      match (tu.(n - 2), tu.(n - 1)) with
      | Value.Time f, Value.Time t -> (f, t)
      | _ -> Alcotest.fail "expected trailing time columns"
    in
    let covers (f, t) c =
      Chronon.compare f c <= 0 && Chronon.compare c t < 0
    in
    let check_workers src =
      let seq = structured ~config:(at_workers 1) src in
      let par = structured ~config:(at_workers 4) src in
      if seq <> par then
        Alcotest.failf
          "sequential and 4-worker coalesced rows diverge (seed %d) on %s"
          oracle_seed src;
      seq
    in
    (* --- plain coalesced retrieve: rows at c = distinct snapshot rows --- *)
    let src = "retrieve coalesced (t.id, t.amount)" ^ where_text where in
    Buffer.add_string script (src ^ "\n");
    let rows = check_workers src in
    (* minimality: no two value-equivalent rows touch or overlap *)
    let by_user = Hashtbl.create 16 in
    List.iter
      (fun tu ->
        let key = (tu.(0), tu.(1)) in
        let f, t = row_period tu in
        let prev = Option.value (Hashtbl.find_opt by_user key) ~default:[] in
        List.iter
          (fun (pf, pt) ->
            if Chronon.compare f pt <= 0 && Chronon.compare pf t <= 0 then
              fail_at src f "value-equivalent result rows touch or overlap")
          prev;
        Hashtbl.replace by_user key ((f, t) :: prev))
      rows;
    List.iter
      (fun c ->
        let got =
          List.filter_map
            (fun tu ->
              if covers (row_period tu) c then Some (tu.(0), tu.(1)) else None)
            rows
          |> List.sort_uniq compare
        in
        let want =
          snapshot_at c
          |> List.map (fun v -> (Value.Int v.m_id, Value.Int v.m_amount))
          |> List.sort_uniq compare
        in
        if got <> want then
          fail_at src c
            (Printf.sprintf
               "coalesced slice has %d distinct rows, snapshot has %d"
               (List.length got) (List.length want)))
      samples;
    (* --- temporal aggregation: the aggregate at c = snapshot fold --- *)
    let src =
      "retrieve coalesced (c = count(t.id), s = sum(t.amount))"
      ^ where_text where
    in
    Buffer.add_string script (src ^ "\n");
    let rows = check_workers src in
    List.iter
      (fun c ->
        let covering =
          List.filter (fun tu -> covers (row_period tu) c) rows
        in
        let snap = snapshot_at c in
        let want_count = List.length snap in
        let want_sum =
          List.fold_left (fun acc v -> acc + v.m_amount) 0 snap
        in
        match covering with
        | [] ->
            if want_count > 0 then
              fail_at src c
                (Printf.sprintf "no aggregate row, snapshot has %d versions"
                   want_count)
        | [ tu ] -> (
            match (tu.(0), tu.(1)) with
            | Value.Int gc, Value.Int gs ->
                if gc <> want_count || gs <> want_sum then
                  fail_at src c
                    (Printf.sprintf "aggregate (%d, %d) vs snapshot (%d, %d)"
                       gc gs want_count want_sum)
            | _ -> fail_at src c "non-integer aggregate values")
        | _ -> fail_at src c "overlapping aggregate intervals")
      samples
  done

let suites =
  [
    ( "oracle",
      [
        Alcotest.test_case "single variable, all access methods" `Quick
          test_single_variable_oracle;
        Alcotest.test_case "joins under every plan" `Quick test_join_oracle;
        Alcotest.test_case "range probes" `Quick test_range_oracle;
        Alcotest.test_case "aggregates" `Quick test_aggregate_oracle;
        Alcotest.test_case "temporal histories, both executors" `Quick
          test_temporal_oracle;
        Alcotest.test_case "mismatch reports are reproducible" `Quick
          test_oracle_mismatch_reporting;
        Alcotest.test_case "temporal joins vs nested loop, both executors"
          `Quick test_temporal_join_oracle;
        Alcotest.test_case "snapshot semantics of coalesced results" `Quick
          test_snapshot_semantics_oracle;
        Alcotest.test_case "scale 10: parallel probes vs sequential" `Slow
          test_scale10_parallel_probes;
      ] );
  ]
