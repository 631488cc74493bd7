(* The restriction oracle: random single-variable predicates, evaluated
   compiled on the encoded record and interpreted by [Eval] on the
   decoded tuple, must agree on every record — including raising the
   same error for the same records.  Failures name the seed; replay with
   TDB_ORACLE_SEED. *)

module Restriction = Tdb_query.Restriction
module Conjuncts = Tdb_query.Conjuncts
module Eval = Tdb_query.Eval
module Pretty = Tdb_tquel.Pretty
module Schema = Tdb_relation.Schema
module Tuple = Tdb_relation.Tuple
module Value = Tdb_relation.Value
module Attr_type = Tdb_relation.Attr_type
module Db_type = Tdb_relation.Db_type
module Chronon = Tdb_time.Chronon
module Period = Tdb_time.Period
open Tdb_tquel.Ast

let oracle_seed =
  match Sys.getenv_opt "TDB_ORACLE_SEED" with
  | None -> 14014
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> n
      | None -> Alcotest.failf "TDB_ORACLE_SEED must be an integer, got %S" s)

let db_types =
  Db_type.
    [
      Static;
      Rollback;
      Historical Interval;
      Historical Event;
      Temporal Interval;
      Temporal Event;
    ]

let schema_of db_type =
  Schema.create_exn ~db_type
    [
      { Schema.name = "id"; ty = Attr_type.I4 };
      { Schema.name = "small"; ty = Attr_type.I2 };
      { Schema.name = "tiny"; ty = Attr_type.I1 };
      { Schema.name = "ratio"; ty = Attr_type.F8 };
      { Schema.name = "name"; ty = Attr_type.C 10 };
      { Schema.name = "seen"; ty = Attr_type.Time };
    ]

(* Instants within a few days of the base, so generated literals, stored
   stamps and "now" interleave; [forever] and [beginning] appear too. *)
let base = Chronon.parse_exn "1980-01-01"
let now = Chronon.add_seconds base (3 * 86400)
let pick rng arr = arr.(Random.State.int rng (Array.length arr))

let gen_instant rng =
  match Random.State.int rng 10 with
  | 0 -> Chronon.forever
  | 1 -> Chronon.beginning
  | 2 -> now
  | _ -> Chronon.add_seconds base (86400 * Random.State.int rng 6)

let time_literals =
  [| "now"; "1980-01-01"; "1980-01-02"; "1980-01-04"; "1980-01-06";
     "forever"; "beginning"; "not a time"; "13/45/80" |]

let gen_value rng (a : Schema.attr) =
  match a.Schema.ty with
  | Attr_type.I1 -> Value.Int (Random.State.int rng 7 - 3)
  | Attr_type.I2 -> Value.Int (Random.State.int rng 41 - 20)
  | Attr_type.I4 -> Value.Int (Random.State.int rng 21 - 10)
  | Attr_type.F4 | Attr_type.F8 ->
      Value.Float (float_of_int (Random.State.int rng 9 - 4) /. 2.)
  | Attr_type.C _ ->
      Value.Str (pick rng [| ""; "ab"; "abc"; "zz"; "1980-01-02"; "now" |])
  | Attr_type.Time -> Value.Time (gen_instant rng)

let gen_tuple rng schema =
  Array.map (gen_value rng) (Schema.all_attrs schema)

(* --- predicates --- *)

(* Attribute names as a user might write them: any case, underscores for
   spaces, an occasional unknown attribute or foreign variable. *)
let attr_refs schema =
  Array.to_list (Schema.all_attrs schema)
  |> List.concat_map (fun (a : Schema.attr) ->
         let n = a.Schema.name in
         [ n; String.uppercase_ascii n; String.map (fun c -> if c = ' ' then '_' else c) n ])
  |> Array.of_list

let gen_attr rng schema =
  match Random.State.int rng 40 with
  | 0 -> Eattr ("h", "nope")
  | 1 -> Eattr ("g", "id")
  | _ -> Eattr ("h", pick rng (attr_refs schema))

let rec gen_expr rng schema depth =
  match Random.State.int rng (if depth <= 0 then 5 else 8) with
  | 0 | 1 -> gen_attr rng schema
  | 2 -> Eint (Random.State.int rng 7 - 3)
  | 3 -> Estring (pick rng time_literals)
  | 4 -> Efloat (pick rng [| 0.; 0.5; -1.5 |])
  | 5 -> Euminus (gen_expr rng schema (depth - 1))
  | _ ->
      Ebinop
        ( pick rng [| Add; Sub; Mul; Div; Mod |],
          gen_expr rng schema (depth - 1),
          gen_expr rng schema (depth - 1) )

let rec gen_pred rng schema depth =
  match Random.State.int rng (if depth <= 0 then 1 else 5) with
  | 0 | 1 ->
      Pcompare
        ( pick rng [| Eq; Ne; Lt; Le; Gt; Ge |],
          gen_expr rng schema 2,
          gen_expr rng schema 2 )
  | 2 -> Wand (gen_pred rng schema (depth - 1), gen_pred rng schema (depth - 1))
  | 3 -> Wor (gen_pred rng schema (depth - 1), gen_pred rng schema (depth - 1))
  | _ -> Wnot (gen_pred rng schema (depth - 1))

let rec gen_tempexpr rng depth =
  match Random.State.int rng (if depth <= 0 then 3 else 7) with
  | 0 | 1 -> if Random.State.int rng 30 = 0 then Tvar "g" else Tvar "h"
  | 2 -> Tconst (pick rng time_literals)
  | 3 -> Toverlap (gen_tempexpr rng (depth - 1), gen_tempexpr rng (depth - 1))
  | 4 -> Textend (gen_tempexpr rng (depth - 1), gen_tempexpr rng (depth - 1))
  | 5 -> Tstart_of (gen_tempexpr rng (depth - 1))
  | _ -> Tend_of (gen_tempexpr rng (depth - 1))

let rec gen_temppred rng depth =
  match Random.State.int rng (if depth <= 0 then 3 else 6) with
  | 0 -> Poverlap (gen_tempexpr rng 2, gen_tempexpr rng 2)
  | 1 -> Pprecede (gen_tempexpr rng 2, gen_tempexpr rng 2)
  | 2 -> Pequal (gen_tempexpr rng 2, gen_tempexpr rng 2)
  | 3 -> Pand (gen_temppred rng (depth - 1), gen_temppred rng (depth - 1))
  | 4 -> Por (gen_temppred rng (depth - 1), gen_temppred rng (depth - 1))
  | _ -> Pnot (gen_temppred rng (depth - 1))

let gen_conjuncts rng schema =
  List.init (Random.State.int rng 4) (fun _ ->
      if Random.State.bool rng then Conjuncts.Where (gen_pred rng schema 2)
      else Conjuncts.When (gen_temppred rng 2))

let gen_window rng =
  match Random.State.int rng 3 with
  | 0 -> None
  | 1 -> Some (Period.at (gen_instant rng))
  | _ ->
      let a = gen_instant rng and b = gen_instant rng in
      Some (Period.make (Chronon.min a b) (Chronon.max a b))

(* --- the two evaluations --- *)

let outcome f =
  match f () with
  | b -> Ok b
  | exception Eval.Eval_error m -> Error ("Eval_error: " ^ m)
  | exception e -> Error (Printexc.to_string e)

(* [Eval] over the decoded tuple, the way the executor applied a
   restriction before it was compiled: the as-of window, then each
   conjunct in order. *)
let interpreted ~schema ~window conjuncts tuple =
  let ctx = { Eval.bindings = [ { Eval.var = "h"; schema; tuple } ]; now } in
  (match (window, Tuple.transaction_period schema tuple) with
  | Some w, Some p -> Period.overlaps p w
  | _ -> true)
  && List.for_all
       (function
         | Conjuncts.Where p -> Eval.pred ctx p
         | Conjuncts.When p -> Eval.temppred ctx p)
       conjuncts

let describe ~window conjuncts =
  let window =
    match window with None -> "none" | Some w -> Period.to_string w
  in
  Printf.sprintf "as of %s; %s" window
    (String.concat " AND "
       (List.map
          (function
            | Conjuncts.Where p -> "where " ^ Pretty.pred p
            | Conjuncts.When p -> "when " ^ Pretty.temppred p)
          conjuncts))

let show = function
  | Ok b -> string_of_bool b
  | Error e -> "raises " ^ e

let test_compiled_matches_eval () =
  let rng = Random.State.make [| oracle_seed |] in
  let raised = ref 0 and passed = ref 0 and total = ref 0 in
  List.iter
    (fun db_type ->
      let schema = schema_of db_type in
      let records =
        List.init 40 (fun _ -> Tuple.encode schema (gen_tuple rng schema))
      in
      for _ = 1 to 250 do
        let window = gen_window rng in
        let conjuncts = gen_conjuncts rng schema in
        let compiled =
          Restriction.compile ~schema ~var:"h" ~now ~window conjuncts
        in
        List.iter
          (fun record ->
            let tuple = Tuple.decode schema record 0 in
            let want =
              outcome (fun () -> interpreted ~schema ~window conjuncts tuple)
            in
            let got =
              outcome (fun () ->
                  match compiled with None -> true | Some keep -> keep record)
            in
            incr total;
            (match want with
            | Ok true -> incr passed
            | Error _ -> incr raised
            | Ok false -> ());
            if want <> got then
              Alcotest.failf
                "restriction oracle mismatch (replay with \
                 TDB_ORACLE_SEED=%d)\n\
                 relation: %s\n\
                 restriction: %s\n\
                 tuple: %s\n\
                 Eval: %s\n\
                 compiled: %s"
                oracle_seed
                (Db_type.to_string db_type)
                (describe ~window conjuncts)
                (Tuple.to_string schema tuple)
                (show want) (show got))
          records
      done)
    db_types;
  (* the generator must exercise all three outcomes *)
  Alcotest.(check bool) "some records pass" true (!passed > !total / 50);
  Alcotest.(check bool) "some records raise" true (!raised > !total / 50);
  Alcotest.(check bool) "some records fail" true
    (!passed + !raised < !total)

(* Errors surface only for records that reach them: a guard that fails
   first keeps a division by zero or a bad time string from raising. *)
let test_errors_only_where_reached () =
  let schema = schema_of (Db_type.Temporal Db_type.Interval) in
  let tuple id =
    Tuple.encode schema
      (Array.mapi
         (fun i v -> if i = 0 then Value.Int id else v)
         (gen_tuple (Random.State.make [| 7 |]) schema))
  in
  let guarded =
    [
      Conjuncts.Where (Pcompare (Eq, Eattr ("h", "id"), Eint 1));
      Conjuncts.Where
        (Pcompare (Eq, Ebinop (Div, Eattr ("h", "id"), Eint 0), Eint 0));
      Conjuncts.Where (Pcompare (Lt, Eattr ("h", "seen"), Estring "bogus"));
    ]
  in
  let keep =
    match Restriction.compile ~schema ~var:"h" ~now ~window:None guarded with
    | Some keep -> keep
    | None -> Alcotest.fail "a restriction compiles to a test"
  in
  Alcotest.(check bool) "guard refutes: no error" false (keep (tuple 2));
  match keep (tuple 1) with
  | _ -> Alcotest.fail "a record past the guard must raise"
  | exception Eval.Eval_error m ->
      Alcotest.(check string) "Eval's own message" "division by zero" m

let test_nothing_to_test () =
  let schema = schema_of Db_type.Static in
  Alcotest.(check bool) "no transaction time, no conjuncts: no test" true
    (Option.is_none
       (Restriction.compile ~schema ~var:"h" ~now
          ~window:(Some (Period.at now)) []))

let suites =
  [
    ( "restriction",
      [
        Alcotest.test_case "compiled = Eval, all database types" `Quick
          test_compiled_matches_eval;
        Alcotest.test_case "errors only where reached" `Quick
          test_errors_only_where_reached;
        Alcotest.test_case "nothing to test" `Quick test_nothing_to_test;
      ] );
  ]
