module Schema = Tdb_relation.Schema
module Tuple = Tdb_relation.Tuple
module Value = Tdb_relation.Value
module Attr_type = Tdb_relation.Attr_type
module Db_type = Tdb_relation.Db_type
module Relation_file = Tdb_storage.Relation_file
module Cursor = Tdb_storage.Cursor
module Trace = Tdb_obs.Trace
module Chronon = Tdb_time.Chronon
module Period = Tdb_time.Period
open Tdb_tquel.Ast

type counts =
  { matched : int; inserted : int; trace : Trace.node option; workers : int }

exception Execution_error of string

let errf fmt = Printf.ksprintf (fun s -> raise (Execution_error s)) fmt

let zero_value = function
  | Attr_type.I1 | I2 | I4 -> Value.Int 0
  | F4 | F8 -> Value.Float 0.
  | C _ -> Value.Str ""
  | Time -> Value.Time (Chronon.of_seconds 0)

let period_bounds ~now ctx = function
  | Some (Valid_interval (e1, e2)) -> (
      match (Eval.tempexpr ctx e1, Eval.exclusive_end ctx e2) with
      | Some p1, Some to_ ->
          let from_ = Period.from_ p1 in
          if Chronon.compare to_ from_ < 0 then
            errf "valid clause yields an interval that ends before it starts"
          else (from_, to_)
      | _ -> errf "valid clause is undefined for this tuple")
  | Some (Valid_event _) -> errf "valid at used on an interval relation"
  | None -> (now, Chronon.forever)

let event_instant ~now ctx = function
  | Some (Valid_event e) -> (
      match Eval.tempexpr ctx e with
      | Some p -> Period.from_ p
      | None -> errf "valid clause is undefined for this tuple")
  | Some (Valid_interval _) -> errf "valid from/to used on an event relation"
  | None -> now

(* Fill the implicit attributes of a fresh version. *)
let stamp_new ~now ~valid ctx schema user_values =
  let n = Schema.arity schema in
  let tuple = Array.make n (Value.Int 0) in
  Array.blit user_values 0 tuple 0 (Array.length user_values);
  let set idx v = match idx with Some i -> tuple.(i) <- Value.Time v | None -> () in
  (match Db_type.kind (Schema.db_type schema) with
  | Some Db_type.Interval ->
      let from_, to_ = period_bounds ~now ctx valid in
      set (Schema.valid_from_index schema) from_;
      set (Schema.valid_to_index schema) to_
  | Some Db_type.Event ->
      set (Schema.valid_at_index schema) (event_instant ~now ctx valid)
  | None ->
      if valid <> None then
        errf "valid clause on a relation without valid time");
  set (Schema.transaction_start_index schema) now;
  set (Schema.transaction_stop_index schema) Chronon.forever;
  tuple

(* --- qualification: which stored versions does a modification touch? --- *)

(* A modification targets versions that are current in both senses: not
   superseded in transaction time, and still valid (a temporal delete
   inserts a "validity ended" version whose valid-to is in the past; that
   record documents history and must never be re-modified).  Tested on
   the encoded record. *)
let modifiable ~now schema =
  let time_at i =
    let off = Relation_file.attr_offset schema i in
    fun record ->
      Chronon.of_seconds (Int32.to_int (Bytes.get_int32_be record off))
  in
  match
    ( Option.map time_at (Schema.transaction_stop_index schema),
      Option.map time_at (Schema.valid_to_index schema) )
  with
  | None, None -> None
  | stop, valid_to ->
      Some
        (fun record ->
          (match stop with
          | Some stop -> Chronon.is_forever (stop record)
          | None -> true)
          &&
          match valid_to with
          | Some valid_to -> Chronon.compare now (valid_to record) < 0
          | None -> true)

(* Which versions qualify: [modifiable], then the whole [where], then the
   whole [when], compiled once into the cursor's record filter so only
   qualifying versions are decoded. *)
let qualifying_filter ~now ~(source : Executor.source) ~where ~when_ =
  let schema = Relation_file.schema source.rel in
  let clauses =
    List.filter_map Fun.id
      [
        Option.map (fun p -> Conjuncts.Where p) where;
        Option.map (fun p -> Conjuncts.When p) when_;
      ]
  in
  let clauses =
    Restriction.compile ~schema ~var:source.var ~now ~window:None clauses
  in
  match (modifiable ~now schema, clauses) with
  | None, keep | keep, None -> keep
  | Some current, Some holds ->
      Some (fun record -> current record && holds record)

let collect_qualifying ~now ~(source : Executor.source) ~where ~when_ =
  (* Use keyed access when the where clause pins the relation's key; the
     qualification scan then drains the access path's cursor in record
     batches, exactly like a retrieve source. *)
  let conjuncts = Conjuncts.split where when_ in
  let schema = Relation_file.schema source.rel in
  let access =
    match
      (Relation_file.organization source.rel, Relation_file.key_attr source.rel)
    with
    | (Relation_file.Hash _ | Relation_file.Isam _), Some i -> (
        let attr = Schema.norm_name (Schema.attr schema i).Schema.name in
        match Conjuncts.constant_key_probe conjuncts ~var:source.var ~attr with
        | Some e ->
            let probe = Eval.expr { Eval.bindings = []; now } e in
            let probe =
              match Value.coerce (Schema.attr schema i).Schema.ty probe with
              | Ok v -> v
              | Error e -> errf "bad key value: %s" e
            in
            Relation_file.Key_lookup probe
        | None -> Relation_file.Full_scan)
    | _ -> Relation_file.Full_scan
  in
  let keep = qualifying_filter ~now ~source ~where ~when_ in
  let decode = Relation_file.decode source.rel in
  Cursor.fold (Relation_file.cursor ?keep source.rel access) ~init:[]
    (fun acc tid record -> (tid, decode record) :: acc)
  |> List.rev

(* --- append --- *)

let constant_user_values ~now rel targets =
  let schema = Relation_file.schema rel in
  let ctx = { Eval.bindings = []; now } in
  Array.map
    (fun (a : Schema.attr) ->
      let supplied =
        List.find_opt
          (fun t ->
            match t.out_name with
            | Some n -> Schema.norm_name n = Schema.norm_name a.Schema.name
            | None -> false)
          targets
      in
      match supplied with
      | None -> zero_value a.Schema.ty
      | Some t -> (
          let v = Eval.expr ctx t.value in
          let v =
            match (a.Schema.ty, v) with
            | Attr_type.Time, Value.Str s -> (
                match Chronon.parse ~now s with
                | Ok c -> Value.Time c
                | Error e -> errf "bad time constant %S: %s" s e)
            | _ -> v
          in
          match Value.coerce a.Schema.ty v with
          | Ok v -> v
          | Error e -> errf "attribute %s: %s" a.Schema.name e))
    (Schema.user_attrs schema)

let insert_version ~now ~valid ctx rel user_values =
  let schema = Relation_file.schema rel in
  let tuple = stamp_new ~now ~valid ctx schema user_values in
  (match Tuple.validate schema tuple with
  | Ok () -> ()
  | Error e -> errf "bad tuple: %s" e);
  ignore (Relation_file.insert rel tuple)

let run_append ~config ~now ~rel ~sources (a : append) =
  let qnode = Trace.start "append" in
  Fun.protect ~finally:(fun () -> Trace.finish qnode) @@ fun () ->
  let has_vars =
    List.exists
      (fun t ->
        let acc = ref [] in
        let rec go = function
          | Eattr (v, _) -> acc := v :: !acc
          | Eint _ | Efloat _ | Estring _ -> ()
          | Ebinop (_, x, y) -> go x; go y
          | Euminus e -> go e
          | Eagg (_, e, by) -> go e; List.iter go by
        in
        go t.value;
        !acc <> [])
      a.targets
    || a.where <> None || a.when_ <> None
  in
  if not has_vars then begin
    let user_values = constant_user_values ~now rel a.targets in
    insert_version ~now ~valid:a.valid { Eval.bindings = []; now } rel
      user_values;
    { matched = 1; inserted = 1; trace = Trace.result qnode; workers = 1 }
  end
  else begin
    (* Query append: run the body as a retrieve, then insert each result. *)
    let r =
      {
        into = None;
        unique = false;
        coalesce = false;
        targets = a.targets;
        valid = a.valid;
        where = a.where;
        when_ = a.when_;
        as_of = None;
      }
    in
    let inserted = ref 0 in
    let schema = Relation_file.schema rel in
    (* Map result attributes onto the target relation's user attributes by
       name. *)
    let result_schema = Executor.result_schema ~sources r in
    let mapping =
      Array.map
        (fun (a : Schema.attr) ->
          Schema.index_of result_schema a.Schema.name)
        (Schema.user_attrs schema)
    in
    let outcome2 =
      Executor.run_retrieve ~config ~now ~sources r ~on_tuple:(fun result_tuple ->
          let user_values =
            Array.mapi
              (fun i m ->
                match m with
                | Some j -> (
                    let ty = (Schema.user_attrs schema).(i).Schema.ty in
                    match Value.coerce ty result_tuple.(j) with
                    | Ok v -> v
                    | Error e -> errf "append: %s" e)
                | None -> zero_value (Schema.user_attrs schema).(i).Schema.ty)
              mapping
          in
          (* Carry the result's valid period into the new versions when both
             sides have valid time. *)
          let valid_override =
            match
              ( Tuple.valid_period result_schema result_tuple,
                Db_type.kind (Schema.db_type schema) )
            with
            | Some p, Some Db_type.Interval ->
                Some
                  (Valid_interval
                     ( Tconst (Chronon.to_string (Period.from_ p)),
                       Tconst (Chronon.to_string (Period.to_ p)) ))
            | Some p, Some Db_type.Event ->
                Some (Valid_event (Tconst (Chronon.to_string (Period.from_ p))))
            | _ -> None
          in
          insert_version ~now ~valid:valid_override { Eval.bindings = []; now }
            rel user_values;
          incr inserted)
    in
    { matched = outcome2.Executor.count; inserted = !inserted;
      trace = Trace.result qnode; workers = outcome2.Executor.workers }
  end

(* --- delete --- *)

let set_time_at rel tid tuple idx value =
  let tuple' = Tuple.set_time tuple idx value in
  Relation_file.update rel tid tuple';
  tuple'

let run_delete ~now ~(source : Executor.source) (d : delete) =
  let qnode = Trace.start "delete" in
  Fun.protect ~finally:(fun () -> Trace.finish qnode) @@ fun () ->
  let rel = source.rel in
  let schema = Relation_file.schema rel in
  let victims =
    Trace.within
      (Printf.sprintf "qualify(%s)" source.var)
      (fun qn ->
        let vs = collect_qualifying ~now ~source ~where:d.where ~when_:d.when_ in
        Trace.add_tuples qn (List.length vs);
        vs)
  in
  let inserted = ref 0 in
  Trace.within "apply" @@ fun apply_span ->
  Trace.add_tuples apply_span (List.length victims);
  List.iter
    (fun (tid, tuple) ->
      match Schema.db_type schema with
      | Db_type.Static -> Relation_file.delete rel tid
      | Db_type.Rollback ->
          ignore
            (set_time_at rel tid tuple
               (Option.get (Schema.transaction_stop_index schema))
               now)
      | Db_type.Historical Db_type.Interval ->
          ignore
            (set_time_at rel tid tuple
               (Option.get (Schema.valid_to_index schema))
               now)
      | Db_type.Historical Db_type.Event ->
          (* An instantaneous fact cannot be "terminated"; deleting it can
             only remove the record. *)
          Relation_file.delete rel tid
      | Db_type.Temporal kind ->
          let tuple =
            set_time_at rel tid tuple
              (Option.get (Schema.transaction_stop_index schema))
              now
          in
          (* Record that validity ended now: a fresh version, transaction
             time [now, forever). *)
          let fresh = Array.copy tuple in
          (match kind with
          | Db_type.Interval ->
              fresh.(Option.get (Schema.valid_to_index schema)) <- Value.Time now
          | Db_type.Event -> ());
          fresh.(Option.get (Schema.transaction_start_index schema)) <-
            Value.Time now;
          fresh.(Option.get (Schema.transaction_stop_index schema)) <-
            Value.Time Chronon.forever;
          (match kind with
          | Db_type.Interval ->
              ignore (Relation_file.insert rel fresh);
              incr inserted
          | Db_type.Event ->
              (* A temporal event's deletion is fully described by the
                 transaction-stop stamp; no new version is needed. *)
              ()))
    victims;
  { matched = List.length victims; inserted = !inserted;
    trace = Trace.result qnode; workers = 1 }

(* --- replace --- *)

let run_replace ~now ~(source : Executor.source) (r : replace) =
  let qnode = Trace.start "replace" in
  Fun.protect ~finally:(fun () -> Trace.finish qnode) @@ fun () ->
  let rel = source.rel in
  let schema = Relation_file.schema rel in
  let victims =
    Trace.within
      (Printf.sprintf "qualify(%s)" source.var)
      (fun qn ->
        let vs = collect_qualifying ~now ~source ~where:r.where ~when_:r.when_ in
        Trace.add_tuples qn (List.length vs);
        vs)
  in
  let inserted = ref 0 in
  let new_user_values old_tuple =
    let ctx =
      {
        Eval.bindings = [ { Eval.var = source.var; schema; tuple = old_tuple } ];
        now;
      }
    in
    ( ctx,
      Array.mapi
        (fun i (a : Schema.attr) ->
          let supplied =
            List.find_opt
              (fun t ->
                match t.out_name with
                | Some n -> Schema.norm_name n = Schema.norm_name a.Schema.name
                | None -> false)
              r.targets
          in
          match supplied with
          | None -> old_tuple.(i)
          | Some t -> (
              match Value.coerce a.Schema.ty (Eval.expr ctx t.value) with
              | Ok v -> v
              | Error e -> errf "attribute %s: %s" a.Schema.name e))
        (Schema.user_attrs schema) )
  in
  Trace.within "apply" @@ fun apply_span ->
  Trace.add_tuples apply_span (List.length victims);
  List.iter
    (fun (tid, old_tuple) ->
      let ctx, user_values = new_user_values old_tuple in
      match Schema.db_type schema with
      | Db_type.Static ->
          let updated = Array.copy old_tuple in
          Array.blit user_values 0 updated 0 (Array.length user_values);
          Relation_file.update rel tid updated
      | Db_type.Rollback ->
          ignore
            (set_time_at rel tid old_tuple
               (Option.get (Schema.transaction_stop_index schema))
               now);
          insert_version ~now ~valid:None ctx rel user_values;
          incr inserted
      | Db_type.Historical Db_type.Interval ->
          ignore
            (set_time_at rel tid old_tuple
               (Option.get (Schema.valid_to_index schema))
               now);
          insert_version ~now ~valid:r.valid ctx rel user_values;
          incr inserted
      | Db_type.Historical Db_type.Event ->
          Relation_file.delete rel tid;
          insert_version ~now ~valid:r.valid ctx rel user_values;
          incr inserted
      | Db_type.Temporal kind ->
          (* delete ... *)
          let old_tuple =
            set_time_at rel tid old_tuple
              (Option.get (Schema.transaction_stop_index schema))
              now
          in
          (match kind with
          | Db_type.Interval ->
              let terminated = Array.copy old_tuple in
              terminated.(Option.get (Schema.valid_to_index schema)) <-
                Value.Time now;
              terminated.(Option.get (Schema.transaction_start_index schema)) <-
                Value.Time now;
              terminated.(Option.get (Schema.transaction_stop_index schema)) <-
                Value.Time Chronon.forever;
              ignore (Relation_file.insert rel terminated);
              incr inserted
          | Db_type.Event -> ());
          (* ... then append the new version. *)
          insert_version ~now ~valid:r.valid ctx rel user_values;
          incr inserted)
    victims;
  { matched = List.length victims; inserted = !inserted;
    trace = Trace.result qnode; workers = 1 }
