module Value = Tdb_relation.Value
module Schema = Tdb_relation.Schema
module Attr_type = Tdb_relation.Attr_type
module Relation_file = Tdb_storage.Relation_file
module Chronon = Tdb_time.Chronon
module Period = Tdb_time.Period
open Tdb_tquel.Ast

(* A compiled operand.  A constant subtree is evaluated once, at compile
   time; if that raises, the exception is kept and raised for each record
   that reaches the node, which is where [Eval] raises it. *)
type 'a operand = Const of 'a | Fails of exn | Per_record of (bytes -> 'a)

let fold f = match f () with v -> Const v | exception e -> Fails e

let run = function
  | Const v -> fun _ -> v
  | Fails e -> fun _ -> raise e
  | Per_record f -> f

let lift1 f = function
  | Const x -> fold (fun () -> f x)
  | Fails e -> Fails e
  | Per_record g -> Per_record (fun r -> f (g r))

(* Left operand first, as in [Eval]. *)
let lift2 f a b =
  match (a, b) with
  | Const x, Const y -> fold (fun () -> f x y)
  | Fails e, _ -> Fails e
  | _ ->
      let ra = run a and rb = run b in
      Per_record
        (fun r ->
          let x = ra r in
          f x (rb r))

(* A value expression: a stored attribute (read at its byte offset), or
   any other operand. *)
type expr_c = Attr of Attr_type.t * int | Value of Value.t operand

let value_of = function
  | Value o -> o
  | Attr (ty, off) -> Per_record (fun r -> Value.decode ty r off)

let time_at off r = Chronon.of_seconds (Int32.to_int (Bytes.get_int32_be r off))

let is_int = function Attr_type.I1 | I2 | I4 -> true | _ -> false

(* An integer attribute unboxed: the [Value.Int] [Value.decode] reads. *)
let int_at ty off =
  match ty with
  | Attr_type.I1 -> fun r -> Bytes.get_int8 r off
  | Attr_type.I2 -> fun r -> Bytes.get_int16_be r off
  | _ -> fun r -> Int32.to_int (Bytes.get_int32_be r off)

type env = {
  schema : Schema.t;
  var : string;
  now : Chronon.t;
  valid : bytes -> Period.t;  (** [Eval.valid_of_tuple], from the bytes *)
}

(* [Tuple.valid_period] read straight from the record; a relation without
   valid time binds its whole lifetime, as in [Eval.valid_of_tuple]. *)
let valid_reader schema =
  let time i = time_at (Relation_file.attr_offset schema i) in
  match (Schema.valid_from_index schema, Schema.valid_at_index schema) with
  | Some f, _ ->
      let from_ = time f in
      let to_ =
        match Schema.valid_to_index schema with
        | Some t -> time t
        | None -> fun _ -> Chronon.forever
      in
      fun r ->
        let f = from_ r and t = to_ r in
        if Chronon.compare t f < 0 then Period.at f else Period.make f t
  | None, Some a ->
      let at = time a in
      fun r -> Period.at (at r)
  | None, None ->
      let always = Period.make Chronon.beginning Chronon.forever in
      fun _ -> always

let rec expr env = function
  | Eattr (v, a) -> (
      if v <> env.var then Value (fold (fun () -> Eval.unbound v))
      else
        match fold (fun () -> Eval.attr_index env.schema v a) with
        | Const i ->
            Attr
              ( (Schema.attr env.schema i).Schema.ty,
                Relation_file.attr_offset env.schema i )
        | Fails e -> Value (Fails e)
        | Per_record _ -> assert false)
  | Eint n -> Value (Const (Value.Int n))
  | Efloat f -> Value (Const (Value.Float f))
  | Estring s -> Value (Const (Value.Str s))
  | Euminus e -> Value (lift1 Eval.negate (value_of (expr env e)))
  | Ebinop (op, a, b) ->
      let a = value_of (expr env a) in
      Value (lift2 (Eval.apply_binop op) a (value_of (expr env b)))
  | Eagg _ as e ->
      Value (fold (fun () -> Eval.expr { Eval.bindings = []; now = env.now } e))

let holds op c =
  match op with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

(* [Eval.compare_values] on the operands.  Integer attributes against
   integers and time attributes against time strings compare without
   boxing a value; the string is parsed once. *)
let compare env op a b =
  let parsed s = fold (fun () -> Eval.time_of_string ~now:env.now s) in
  match (a, b) with
  | Attr (ty, off), Value (Const (Value.Int n)) when is_int ty ->
      let get = int_at ty off in
      fun r -> holds op (Int.compare (get r) n)
  | Value (Const (Value.Int n)), Attr (ty, off) when is_int ty ->
      let get = int_at ty off in
      fun r -> holds op (Int.compare n (get r))
  | Attr (Attr_type.Time, off), Value (Const (Value.Str s)) -> (
      match parsed s with
      | Const t -> fun r -> holds op (Chronon.compare (time_at off r) t)
      | Fails e -> fun _ -> raise e
      | Per_record _ -> assert false)
  | Value (Const (Value.Str s)), Attr (Attr_type.Time, off) -> (
      match parsed s with
      | Const t -> fun r -> holds op (Chronon.compare t (time_at off r))
      | Fails e -> fun _ -> raise e
      | Per_record _ -> assert false)
  | _ ->
      run
        (lift1 (holds op)
           (lift2 (Eval.compare_values ~now:env.now) (value_of a) (value_of b)))

let rec pred env = function
  | Pcompare (op, a, b) ->
      let a = expr env a in
      compare env op a (expr env b)
  | Wand (a, b) ->
      let fa = pred env a and fb = pred env b in
      fun r -> fa r && fb r
  | Wor (a, b) ->
      let fa = pred env a and fb = pred env b in
      fun r -> fa r || fb r
  | Wnot a ->
      let fa = pred env a in
      fun r -> not (fa r)

let both f pa pb = match (pa, pb) with Some a, Some b -> f a b | _ -> None

let rec tempexpr env = function
  | Tvar v ->
      if v <> env.var then fold (fun () -> Eval.unbound v)
      else
        let valid = env.valid in
        Per_record (fun r -> Some (valid r))
  | Tconst s ->
      fold (fun () -> Some (Period.at (Eval.time_of_string ~now:env.now s)))
  | Toverlap (a, b) ->
      let a = tempexpr env a in
      lift2 (both Period.overlap) a (tempexpr env b)
  | Textend (a, b) ->
      let a = tempexpr env a in
      lift2 (both (fun x y -> Some (Period.extend x y))) a (tempexpr env b)
  | Tstart_of e -> lift1 (Option.map Period.start_of) (tempexpr env e)
  | Tend_of e -> lift1 (Option.map Period.end_of) (tempexpr env e)

let rec temppred env = function
  | (Poverlap (a, b) | Pprecede (a, b) | Pequal (a, b)) as p ->
      let test = Eval.period_test p in
      let a = tempexpr env a in
      run
        (lift2
           (fun pa pb ->
             match (pa, pb) with Some x, Some y -> test x y | _ -> false)
           a (tempexpr env b))
  | Pand (a, b) ->
      let fa = temppred env a and fb = temppred env b in
      fun r -> fa r && fb r
  | Por (a, b) ->
      let fa = temppred env a and fb = temppred env b in
      fun r -> fa r || fb r
  | Pnot a ->
      let fa = temppred env a in
      fun r -> not (fa r)

let compile ~schema ~var ~now ~window conjuncts =
  let env = { schema; var; now; valid = valid_reader schema } in
  let window_test =
    match (window, Relation_file.transaction_overlaps schema) with
    | Some w, Some overlaps -> [ overlaps w ]
    | _ -> []
  in
  let tests =
    window_test
    @ List.map
        (function
          | Conjuncts.Where p -> pred env p
          | Conjuncts.When p -> temppred env p)
        conjuncts
  in
  match tests with
  | [] -> None
  | [ t ] -> Some t
  | [ t1; t2 ] -> Some (fun r -> t1 r && t2 r)
  | ts -> Some (fun r -> List.for_all (fun t -> t r) ts)
