module Value = Tdb_relation.Value
module Schema = Tdb_relation.Schema
module Tuple = Tdb_relation.Tuple
module Chronon = Tdb_time.Chronon
module Period = Tdb_time.Period
open Tdb_tquel.Ast

type binding = { var : string; schema : Schema.t; tuple : Tuple.t }
type context = { bindings : binding list; now : Chronon.t }

exception Eval_error of string

let errf fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt

let unbound var = errf "tuple variable %S is not bound" var

let find_binding ctx var =
  let rec go = function
    | [] -> unbound var
    | b :: rest -> if b.var = var then b else go rest
  in
  go ctx.bindings

let attr_index schema var attr =
  match Schema.index_of schema attr with
  | Some i -> i
  | None -> errf "relation of %s has no attribute %S" var attr

let attr_value ctx var attr =
  let b = find_binding ctx var in
  b.tuple.(attr_index b.schema var attr)

let as_number = function
  | Value.Int n -> float_of_int n
  | Value.Float f -> f
  | v -> errf "expected a number, got %s" (Value.to_string v)

let arith op a b =
  match (op, a, b) with
  | Add, Value.Int x, Value.Int y -> Value.Int (x + y)
  | Sub, Value.Int x, Value.Int y -> Value.Int (x - y)
  | Mul, Value.Int x, Value.Int y -> Value.Int (x * y)
  | Div, Value.Int _, Value.Int 0 -> errf "division by zero"
  | Div, Value.Int x, Value.Int y -> Value.Int (x / y)
  | Mod, Value.Int _, Value.Int 0 -> errf "mod by zero"
  | Mod, Value.Int x, Value.Int y -> Value.Int (x mod y)
  | Mod, _, _ -> errf "mod needs integer operands"
  | _ ->
      let x = as_number a and y = as_number b in
      Value.Float
        (match op with
        | Add -> x +. y
        | Sub -> x -. y
        | Mul -> x *. y
        | Div -> if y = 0. then errf "division by zero" else x /. y
        | Mod -> assert false)

let apply_binop = arith

let negate = function
  | Value.Int n -> Value.Int (-n)
  | Value.Float f -> Value.Float (-.f)
  | v -> errf "cannot negate %s" (Value.to_string v)

let rec expr ctx = function
  | Eattr (v, a) -> attr_value ctx v a
  | Eint n -> Value.Int n
  | Efloat f -> Value.Float f
  | Estring s -> Value.Str s
  | Euminus e -> negate (expr ctx e)
  | Ebinop (op, a, b) ->
      let x = expr ctx a in
      arith op x (expr ctx b)
  | Eagg (agg, _, _) ->
      (* Aggregates are folded by the executor, never evaluated per tuple. *)
      errf "aggregate %s outside an aggregate target list"
        (Tdb_tquel.Ast.aggregate_name agg)

let time_of_string ~now s =
  match Chronon.parse ~now s with
  | Ok t -> t
  | Error e -> errf "bad time constant %S: %s" s e

let compare_values ~now a b =
  match (a, b) with
  | Value.Time t, Value.Str s -> Chronon.compare t (time_of_string ~now s)
  | Value.Str s, Value.Time t -> Chronon.compare (time_of_string ~now s) t
  | _ -> Value.compare a b

let rec pred ctx = function
  | Pcompare (op, a, b) ->
      let x = expr ctx a in
      let c = compare_values ~now:ctx.now x (expr ctx b) in
      (match op with
      | Eq -> c = 0
      | Ne -> c <> 0
      | Lt -> c < 0
      | Le -> c <= 0
      | Gt -> c > 0
      | Ge -> c >= 0)
  | Wand (a, b) -> pred ctx a && pred ctx b
  | Wor (a, b) -> pred ctx a || pred ctx b
  | Wnot a -> not (pred ctx a)

let valid_of_tuple b =
  match Tuple.valid_period b.schema b.tuple with
  | Some p -> p
  | None ->
      (* A relation without valid time: its tuples are valid always, so
         temporal joins against them behave like the identity. *)
      Period.make Chronon.beginning Chronon.forever

(* Both operands are evaluated, left first, even when the left one is
   undefined: an error on the right must surface either way. *)
let rec tempexpr ctx = function
  | Tvar v -> Some (valid_of_tuple (find_binding ctx v))
  | Tconst s -> Some (Period.at (time_of_string ~now:ctx.now s))
  | Toverlap (a, b) -> (
      let pa = tempexpr ctx a in
      match (pa, tempexpr ctx b) with
      | Some pa, Some pb -> Period.overlap pa pb
      | _ -> None)
  | Textend (a, b) -> (
      let pa = tempexpr ctx a in
      match (pa, tempexpr ctx b) with
      | Some pa, Some pb -> Some (Period.extend pa pb)
      | _ -> None)
  | Tstart_of e -> Option.map Period.start_of (tempexpr ctx e)
  | Tend_of e -> Option.map Period.end_of (tempexpr ctx e)

let exclusive_end ctx e =
  match e with
  | Tend_of inner ->
      (* "to end of e": the interval covers e's last chronon, so the
         exclusive bound is just past it. *)
      Option.map
        (fun p ->
          if Period.is_event p then Chronon.succ (Period.from_ p)
          else Period.to_ p)
        (tempexpr ctx inner)
  | _ ->
      Option.map
        (fun p -> if Period.is_event p then Period.from_ p else Period.to_ p)
        (tempexpr ctx e)

let period_test = function
  | Poverlap _ -> Period.overlaps
  | Pprecede _ -> Period.precede
  | Pequal _ -> Period.equal
  | Pand _ | Por _ | Pnot _ -> invalid_arg "Eval.period_test: a connective"

let rec temppred ctx = function
  | (Poverlap (a, b) | Pprecede (a, b) | Pequal (a, b)) as p -> (
      let pa = tempexpr ctx a in
      match (pa, tempexpr ctx b) with
      | Some pa, Some pb -> period_test p pa pb
      | _ -> false)
  | Pand (a, b) -> temppred ctx a && temppred ctx b
  | Por (a, b) -> temppred ctx a || temppred ctx b
  | Pnot a -> not (temppred ctx a)
