(* Design-version management over the two-level store.

   Run with:  dune exec examples/versions.exe

   The paper's introduction points at "version management and design
   control in computer aided design" as a driver for temporal support, and
   its section 6 proposes the two-level store: current versions in a
   primary store that updates in place, history versions clustered in a
   history store.  This example manages revisions of circuit-board parts
   through that structure's public API and shows why it exists: lookups of
   the current revision stay at one page no matter how many revisions
   pile up. *)

module Two_level_store = Tdb_twostore.Two_level_store
module Secondary_index = Tdb_twostore.Secondary_index
module Relation_file = Tdb_storage.Relation_file
module Io_stats = Tdb_storage.Io_stats
module Schema = Tdb_relation.Schema
module Value = Tdb_relation.Value
module Attr_type = Tdb_relation.Attr_type
module Db_type = Tdb_relation.Db_type
module Chronon = Tdb_time.Chronon

let schema =
  Schema.create_exn
    ~db_type:(Db_type.Temporal Db_type.Interval)
    [
      { Schema.name = "part"; ty = Attr_type.I4 };
      { Schema.name = "revision"; ty = Attr_type.I4 };
      { Schema.name = "engineer"; ty = Attr_type.C 12 };
      { Schema.name = "layer_count"; ty = Attr_type.I4 };
    ]

let t0 = Chronon.parse_exn "1980-01-01"
let at day = Chronon.add_seconds t0 (day * 86400)

let initial_part id =
  [| Value.Int id; Value.Int 1; Value.Str "kim"; Value.Int 2;
     Value.Time (at 0); Value.Time Chronon.forever;
     Value.Time (at 0); Value.Time Chronon.forever |]

let () =
  let store =
    Two_level_store.create ~name:"parts" ~schema
      ~organization:(Relation_file.Hash { key_attr = 0; fillfactor = 100 })
      ~clustered:true
      (List.init 256 initial_part)
  in
  (* Three months of engineering churn: every part revised twice a month. *)
  for month = 1 to 3 do
    for bump = 0 to 1 do
      for part = 0 to 255 do
        ignore
          (Two_level_store.replace store
             ~now:(at ((month * 30) + bump))
             ~key:(Value.Int part)
             (fun tu ->
               (match tu.(1) with
               | Value.Int r -> tu.(1) <- Value.Int (r + 1)
               | _ -> ());
               tu.(3) <- Value.Int (2 + month);
               tu))
      done
    done
  done;

  Printf.printf "primary store: %d pages (constant); history store: %d pages\n\n"
    (Two_level_store.primary_pages store)
    (Two_level_store.history_pages store);

  (* Current revision of part 42: one page, regardless of history depth. *)
  Two_level_store.reset_io store;
  Two_level_store.current_lookup store (Value.Int 42) (fun tu ->
      Printf.printf "part 42 current revision: r%s by %s, %s layers\n"
        (Value.to_string tu.(1)) (Value.to_string tu.(2))
        (Value.to_string tu.(3)));
  Printf.printf "  cost: %d page read(s)\n\n"
    (Two_level_store.io store).Io_stats.reads;

  (* The full revision history, newest first - the clustered history store
     packs it into a handful of pages. *)
  Two_level_store.reset_io store;
  print_endline "part 42 revision history (validity intervals):";
  Two_level_store.version_scan store (Value.Int 42) (fun tu ->
      match Tdb_relation.Tuple.valid_period schema tu with
      | Some p ->
          Printf.printf "  r%-3s %-28s\n" (Value.to_string tu.(1))
            (Tdb_time.Period.to_string p)
      | None -> ());
  Printf.printf "  cost: %d page read(s)\n\n"
    (Two_level_store.io store).Io_stats.reads;

  (* A secondary index on layer_count answers "which parts currently need
     5-layer boards?" without scanning: look the value up in the current
     index, then fetch each listed part from the primary store. *)
  let entries =
    List.map
      (fun (tid, tu) -> (tu.(3), tid))
      (Two_level_store.current_tids store)
  in
  let index =
    Secondary_index.build ~structure:Secondary_index.Hash_index
      ~key_type:Attr_type.I4 entries
  in
  Two_level_store.reset_io store;
  Secondary_index.reset_io index;
  let five_layer =
    List.map
      (Two_level_store.fetch_current store)
      (Secondary_index.lookup index (Value.Int 5))
  in
  Printf.printf "parts currently at 5 layers: %d (via %d-page current index)\n"
    (List.length five_layer)
    (Secondary_index.npages index);
  Printf.printf "  cost: %d index + %d data page read(s)\n"
    (Secondary_index.io index).Io_stats.reads
    (Two_level_store.io store).Io_stats.reads
