module Schema = Tdb_relation.Schema
module Attr_type = Tdb_relation.Attr_type
module Db_type = Tdb_relation.Db_type

let attr name ty = { Schema.name; ty }

(* The paper's benchmark relations: id = i4, amount = i4, seq = i4,
   string = c96 -> 108 bytes of user data. *)
let paper_attrs =
  [
    attr "id" Attr_type.I4;
    attr "amount" Attr_type.I4;
    attr "seq" Attr_type.I4;
    attr "string" (Attr_type.C 96);
  ]

let test_paper_sizes () =
  let size db_type = Schema.tuple_size (Schema.create_exn ~db_type paper_attrs) in
  Alcotest.(check int) "static tuple = 108 bytes" 108 (size Db_type.Static);
  Alcotest.(check int) "rollback tuple = 116 bytes" 116 (size Db_type.Rollback);
  Alcotest.(check int) "historical tuple = 116 bytes" 116
    (size (Db_type.Historical Db_type.Interval));
  Alcotest.(check int) "temporal tuple = 124 bytes" 124
    (size (Db_type.Temporal Db_type.Interval))

let test_implicit_attributes () =
  let s = Schema.create_exn ~db_type:(Db_type.Temporal Db_type.Interval) paper_attrs in
  Alcotest.(check int) "user arity" 4 (Schema.user_arity s);
  Alcotest.(check int) "full arity" 8 (Schema.arity s);
  Alcotest.(check bool) "valid from present" true (Schema.valid_from_index s <> None);
  Alcotest.(check bool) "valid to present" true (Schema.valid_to_index s <> None);
  Alcotest.(check bool) "tstart present" true
    (Schema.transaction_start_index s <> None);
  Alcotest.(check bool) "tstop present" true
    (Schema.transaction_stop_index s <> None);
  Alcotest.(check bool) "no valid-at on interval relation" true
    (Schema.valid_at_index s = None)

let test_event_relation () =
  let s = Schema.create_exn ~db_type:(Db_type.Historical Db_type.Event) paper_attrs in
  Alcotest.(check int) "one implicit attr" 5 (Schema.arity s);
  Alcotest.(check bool) "valid at present" true (Schema.valid_at_index s <> None);
  Alcotest.(check bool) "no interval attrs" true (Schema.valid_from_index s = None)

let test_static_relation () =
  let s = Schema.create_exn ~db_type:Db_type.Static paper_attrs in
  Alcotest.(check int) "no implicit attrs" 4 (Schema.arity s);
  Alcotest.(check bool) "no time indices" true
    (Schema.valid_from_index s = None
    && Schema.transaction_start_index s = None)

let test_lookup () =
  let s = Schema.create_exn ~db_type:Db_type.Rollback paper_attrs in
  Alcotest.(check (option int)) "user attr" (Some 1) (Schema.index_of s "amount");
  Alcotest.(check (option int)) "case insensitive" (Some 0) (Schema.index_of s "ID");
  Alcotest.(check (option int)) "implicit attr" (Some 4)
    (Schema.index_of s "transaction start");
  Alcotest.(check (option int)) "underscore matches space, any case" (Some 5)
    (Schema.index_of s "Transaction_STOP");
  Alcotest.(check (option int)) "surrounding blanks ignored" (Some 1)
    (Schema.index_of s " amount ");
  Alcotest.(check (option int)) "missing" None (Schema.index_of s "salary")

let test_validation () =
  (match Schema.create ~db_type:Db_type.Static [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty schema accepted");
  (match
     Schema.create ~db_type:Db_type.Static [ attr "x" Attr_type.I4; attr "X" Attr_type.I2 ]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate names accepted");
  match
    Schema.create ~db_type:Db_type.Rollback
      [ attr "transaction start" Attr_type.I4 ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "clash with implicit name accepted"

let test_db_type_properties () =
  Alcotest.(check bool) "static: no when" false (Db_type.supports_when Db_type.Static);
  Alcotest.(check bool) "rollback: as-of" true (Db_type.supports_as_of Db_type.Rollback);
  Alcotest.(check bool) "rollback: no when" false (Db_type.supports_when Db_type.Rollback);
  Alcotest.(check bool) "historical: when" true
    (Db_type.supports_when (Db_type.Historical Db_type.Interval));
  Alcotest.(check bool) "historical: no as-of" false
    (Db_type.supports_as_of (Db_type.Historical Db_type.Interval));
  Alcotest.(check bool) "temporal: both" true
    (Db_type.supports_when (Db_type.Temporal Db_type.Interval)
    && Db_type.supports_as_of (Db_type.Temporal Db_type.Interval));
  Alcotest.(check int) "implicit counts" 4
    (Db_type.implicit_attribute_count (Db_type.Temporal Db_type.Interval));
  Alcotest.(check int) "event historical" 1
    (Db_type.implicit_attribute_count (Db_type.Historical Db_type.Event))

let test_db_type_strings () =
  List.iter
    (fun ty ->
      match Db_type.of_string (Db_type.to_string ty) with
      | Ok ty' -> Alcotest.(check bool) (Db_type.to_string ty) true (Db_type.equal ty ty')
      | Error e -> Alcotest.fail e)
    [
      Db_type.Static;
      Db_type.Rollback;
      Db_type.Historical Db_type.Interval;
      Db_type.Historical Db_type.Event;
      Db_type.Temporal Db_type.Interval;
      Db_type.Temporal Db_type.Event;
    ]

let suites =
  [
    ( "schema",
      [
        Alcotest.test_case "paper tuple sizes" `Quick test_paper_sizes;
        Alcotest.test_case "implicit attributes" `Quick test_implicit_attributes;
        Alcotest.test_case "event relation" `Quick test_event_relation;
        Alcotest.test_case "static relation" `Quick test_static_relation;
        Alcotest.test_case "lookup" `Quick test_lookup;
        Alcotest.test_case "validation" `Quick test_validation;
        Alcotest.test_case "db type properties" `Quick test_db_type_properties;
        Alcotest.test_case "db type strings" `Quick test_db_type_strings;
      ] );
  ]
