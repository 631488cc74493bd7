module Two_level_store = Tdb_twostore.Two_level_store
module History_store = Tdb_twostore.History_store
module Secondary_index = Tdb_twostore.Secondary_index
module Relation_file = Tdb_storage.Relation_file
module Buffer_pool = Tdb_storage.Buffer_pool
module Io_stats = Tdb_storage.Io_stats
module Disk = Tdb_storage.Disk
module Tid = Tdb_storage.Tid
module Schema = Tdb_relation.Schema
module Tuple = Tdb_relation.Tuple
module Value = Tdb_relation.Value
module Attr_type = Tdb_relation.Attr_type
module Db_type = Tdb_relation.Db_type
module Chronon = Tdb_time.Chronon

let attr name ty = { Schema.name; ty }

let schema =
  Schema.create_exn
    ~db_type:(Db_type.Temporal Db_type.Interval)
    [
      attr "id" Attr_type.I4;
      attr "amount" Attr_type.I4;
      attr "seq" Attr_type.I4;
      attr "string" (Attr_type.C 96);
    ]

let t s = Value.Time (Chronon.of_seconds s)

let tuple id =
  [| Value.Int id; Value.Int (id * 10); Value.Int 0; Value.Str "x";
     t 100; Value.Time Chronon.forever; t 100; Value.Time Chronon.forever |]

let n_tuples = 64

let make ~clustered =
  Two_level_store.create ~schema
    ~organization:(Relation_file.Hash { key_attr = 0; fillfactor = 100 })
    ~clustered
    (List.init n_tuples tuple)

let bump_seq tu =
  (match tu.(2) with Value.Int s -> tu.(2) <- Value.Int (s + 1) | _ -> ());
  tu

let evolve store ~rounds =
  for r = 1 to rounds do
    for id = 0 to n_tuples - 1 do
      ignore
        (Two_level_store.replace store
           ~now:(Chronon.of_seconds (1000 + (r * 100)))
           ~key:(Value.Int id) bump_seq)
    done
  done

(* --- history store --- *)

let test_history_store_chain () =
  let pool = Buffer_pool.create (Disk.create_mem ()) (Io_stats.create ()) in
  let hs = History_store.create pool ~tuple_size:124 ~clustered:true in
  let mk i = Tuple.encode schema (Tuple.set_time (tuple i) 2 (Chronon.of_seconds i)) in
  ignore mk;
  let t1 = History_store.push hs
      ~cluster:(Value.Int 1)
      ~tuple:(Tuple.encode schema (tuple 1)) ~prev:None in
  let t2 = History_store.push hs
      ~cluster:(Value.Int 1)
      ~tuple:(Tuple.encode schema (tuple 2)) ~prev:(Some t1) in
  let seen = ref [] in
  History_store.walk hs ~head:(Some t2) (fun tid _ -> seen := tid :: !seen);
  Alcotest.(check int) "walk visits both" 2 (List.length !seen);
  Alcotest.(check bool) "newest first" true
    (match List.rev !seen with a :: b :: _ -> Tid.equal a t2 && Tid.equal b t1 | _ -> false)

let test_history_capacity () =
  (* 124-byte tuples + 4-byte pointer -> 7 per page, the paper's "28
     history versions into 4 pages". *)
  let pool = Buffer_pool.create (Disk.create_mem ()) (Io_stats.create ()) in
  let hs = History_store.create pool ~tuple_size:124 ~clustered:true in
  let prev = ref None in
  for _ = 1 to 28 do
    prev :=
      Some
        (History_store.push hs
           ~cluster:(Value.Int 1)
           ~tuple:(Tuple.encode schema (tuple 1)) ~prev:!prev)
  done;
  Alcotest.(check int) "28 versions on 4 pages" 4 (History_store.npages hs)

let test_clustering_separates_tuples () =
  let pool = Buffer_pool.create (Disk.create_mem ()) (Io_stats.create ()) in
  let hs = History_store.create pool ~tuple_size:124 ~clustered:true in
  (* interleave two tuples' versions; clusters must not share pages *)
  let head_a = ref None and head_b = ref None in
  for _ = 1 to 10 do
    head_a :=
      Some
        (History_store.push hs
           ~cluster:(Value.Int 1)
           ~tuple:(Tuple.encode schema (tuple 1)) ~prev:!head_a);
    head_b :=
      Some
        (History_store.push hs
           ~cluster:(Value.Int 2)
           ~tuple:(Tuple.encode schema (tuple 2)) ~prev:!head_b)
  done;
  (* 10 versions each, 7/page -> 2 pages per cluster = 4 total *)
  Alcotest.(check int) "two clusters, two pages each" 4 (History_store.npages hs)

(* --- two-level store --- *)

let test_primary_never_grows () =
  let store = make ~clustered:true in
  let before = Two_level_store.primary_pages store in
  evolve store ~rounds:6;
  Alcotest.(check int) "primary size constant" before
    (Two_level_store.primary_pages store);
  Alcotest.(check bool) "history grew" true (Two_level_store.history_pages store > 0)

let test_current_queries_constant_cost () =
  let store = make ~clustered:true in
  let lookup_cost () =
    Two_level_store.reset_io store;
    Two_level_store.current_lookup store (Value.Int 5) (fun _ -> ());
    (Two_level_store.io store).Io_stats.reads
  in
  let c0 = lookup_cost () in
  evolve store ~rounds:6;
  Alcotest.(check int) "lookup cost unchanged by updates" c0 (lookup_cost ());
  Alcotest.(check int) "one page" 1 c0

let test_version_scan_completeness () =
  let store = make ~clustered:true in
  evolve store ~rounds:3;
  let seen = ref [] in
  Two_level_store.version_scan store (Value.Int 5) (fun tu -> seen := tu :: !seen);
  (* 1 current + 2 history versions per round *)
  Alcotest.(check int) "1 + 2*3 versions" 7 (List.length !seen);
  (* newest (current) version has seq = 3 *)
  match !seen with
  | l -> (
      match List.rev l with
      | cur :: _ ->
          Alcotest.(check bool) "current first, seq = rounds" true
            (Value.equal cur.(2) (Value.Int 3))
      | [] -> Alcotest.fail "empty")

let test_clustered_version_scan_cheaper () =
  let simple = make ~clustered:false in
  let clustered = make ~clustered:true in
  evolve simple ~rounds:8;
  evolve clustered ~rounds:8;
  let scan_cost store =
    Two_level_store.reset_io store;
    Two_level_store.version_scan store (Value.Int 5) (fun _ -> ());
    (Two_level_store.io store).Io_stats.reads
  in
  let s = scan_cost simple and c = scan_cost clustered in
  (* 16 history versions: clustered = 1 + ceil(16/7) = 4 pages *)
  Alcotest.(check int) "clustered cost" 4 c;
  Alcotest.(check bool)
    (Printf.sprintf "simple (%d) strictly worse than clustered (%d)" s c)
    true (s > c)

let test_equivalence_with_conventional () =
  (* The set of versions stored by the two-level store equals what the
     conventional temporal relation stores under the same updates. *)
  let store = make ~clustered:true in
  evolve store ~rounds:4;
  let conventional = Relation_file.create ~name:"conv" ~schema () in
  List.iter
    (fun tu -> ignore (Relation_file.insert conventional tu))
    (List.init n_tuples tuple);
  Relation_file.modify conventional
    (Relation_file.Hash { key_attr = 0; fillfactor = 100 });
  (* replay the same updates through the section-4 semantics *)
  for r = 1 to 4 do
    let now = Chronon.of_seconds (1000 + (r * 100)) in
    let victims = ref [] in
    Relation_file.scan conventional (fun tid tu ->
        if
          Chronon.is_forever
            (Tuple.get_time tu (Option.get (Schema.transaction_stop_index schema)))
          && Chronon.is_forever
               (Tuple.get_time tu (Option.get (Schema.valid_to_index schema)))
        then victims := (tid, tu) :: !victims);
    List.iter
      (fun (tid, tu) ->
        let stamped =
          Tuple.set_time tu
            (Option.get (Schema.transaction_stop_index schema))
            now
        in
        Relation_file.update conventional tid stamped;
        let terminated = Array.copy tu in
        terminated.(Option.get (Schema.valid_to_index schema)) <- Value.Time now;
        terminated.(Option.get (Schema.transaction_start_index schema)) <-
          Value.Time now;
        ignore (Relation_file.insert conventional terminated);
        let fresh = bump_seq (Array.copy tu) in
        fresh.(Option.get (Schema.valid_from_index schema)) <- Value.Time now;
        fresh.(Option.get (Schema.transaction_start_index schema)) <- Value.Time now;
        ignore (Relation_file.insert conventional fresh))
      !victims
  done;
  let collect_conv = ref [] in
  Relation_file.scan conventional (fun _ tu -> collect_conv := tu :: !collect_conv);
  let collect_2l = ref [] in
  Two_level_store.scan_all store (fun tu -> collect_2l := tu :: !collect_2l);
  let key tu = Array.map Value.to_string tu |> Array.to_list in
  let norm l = List.sort compare (List.map key l) in
  Alcotest.(check int) "same version count"
    (List.length !collect_conv) (List.length !collect_2l);
  Alcotest.(check bool) "identical version multisets" true
    (norm !collect_conv = norm !collect_2l)

let test_delete_removes_from_primary () =
  let store = make ~clustered:true in
  let n = Two_level_store.delete store ~now:(Chronon.of_seconds 2000)
      ~key:(Value.Int 5) in
  Alcotest.(check int) "one victim" 1 n;
  let found = ref 0 in
  Two_level_store.current_lookup store (Value.Int 5) (fun _ -> incr found);
  Alcotest.(check int) "gone from primary" 0 !found;
  (* but its history survives in the history store *)
  let versions = ref 0 in
  Two_level_store.version_scan store (Value.Int 5) (fun _ -> incr versions);
  (* version_scan needs the primary entry for the chain head; a deleted
     tuple's history is reachable through scan_all *)
  let hist = ref 0 in
  Two_level_store.scan_all store (fun tu ->
      if Value.equal tu.(0) (Value.Int 5) then incr hist);
  Alcotest.(check bool) "history preserved" true (!hist >= 2);
  ignore !versions

let test_append_visible () =
  let store = make ~clustered:true in
  Two_level_store.append store ~now:(Chronon.of_seconds 3000) (tuple 999);
  let found = ref 0 in
  Two_level_store.current_lookup store (Value.Int 999) (fun _ -> incr found);
  Alcotest.(check int) "appended tuple current" 1 !found

let test_rejects_non_temporal () =
  let s = Schema.create_exn ~db_type:Db_type.Rollback [ attr "id" Attr_type.I4 ] in
  Alcotest.(check bool) "rollback schema rejected" true
    (try
       ignore
         (Two_level_store.create ~schema:s
            ~organization:(Relation_file.Hash { key_attr = 0; fillfactor = 100 })
            ~clustered:true []);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "heap primary rejected" true
    (try
       ignore
         (Two_level_store.create ~schema ~organization:Relation_file.Heap
            ~clustered:true []);
       false
     with Invalid_argument _ -> true)

(* --- secondary indexes --- *)

let test_index_lookup () =
  List.iter
    (fun structure ->
      let entries =
        List.init 500 (fun i ->
            (Value.Int (i mod 50), { Tid.page = i / 8; slot = i mod 8 }))
      in
      let idx =
        Secondary_index.build ~structure ~key_type:Attr_type.I4 entries
      in
      Alcotest.(check int) "entry count" 500 (Secondary_index.entry_count idx);
      let tids = Secondary_index.lookup idx (Value.Int 7) in
      Alcotest.(check int) "10 entries for key 7" 10 (List.length tids);
      Alcotest.(check int) "absent key" 0
        (List.length (Secondary_index.lookup idx (Value.Int 999))))
    [ Secondary_index.Heap_index; Secondary_index.Hash_index ]

let test_index_insert_remove () =
  List.iter
    (fun structure ->
      let idx = Secondary_index.create ~structure ~key_type:Attr_type.I4 () in
      let tid = { Tid.page = 3; slot = 4 } in
      Secondary_index.insert idx (Value.Int 9) tid;
      Secondary_index.insert idx (Value.Int 9) { Tid.page = 5; slot = 1 };
      Alcotest.(check int) "two entries" 2
        (List.length (Secondary_index.lookup idx (Value.Int 9)));
      Alcotest.(check bool) "remove hits" true
        (Secondary_index.remove idx (Value.Int 9) tid);
      Alcotest.(check int) "one left" 1
        (List.length (Secondary_index.lookup idx (Value.Int 9)));
      Alcotest.(check bool) "remove misses" false
        (Secondary_index.remove idx (Value.Int 9) tid))
    [ Secondary_index.Heap_index; Secondary_index.Hash_index ]

let test_index_page_economy () =
  (* 8-byte entries, 102/page: 1024 entries on 11 pages (the paper's
     current-index size). *)
  let entries =
    List.init 1024 (fun i -> (Value.Int i, { Tid.page = i / 8; slot = i mod 8 }))
  in
  let idx =
    Secondary_index.build ~structure:Secondary_index.Heap_index
      ~key_type:Attr_type.I4 entries
  in
  Alcotest.(check int) "11 pages" 11 (Secondary_index.npages idx)

let test_hash_index_lookup_cheap () =
  let entries =
    List.init 10240 (fun i ->
        (Value.Int (i mod 1024), { Tid.page = i / 8; slot = i mod 8 }))
  in
  let idx =
    Secondary_index.build ~structure:Secondary_index.Hash_index
      ~key_type:Attr_type.I4 entries
  in
  Secondary_index.reset_io idx;
  ignore (Secondary_index.lookup idx (Value.Int 12));
  let hash_reads = (Secondary_index.io idx).Io_stats.reads in
  let heap =
    Secondary_index.build ~structure:Secondary_index.Heap_index
      ~key_type:Attr_type.I4 entries
  in
  Secondary_index.reset_io heap;
  ignore (Secondary_index.lookup heap (Value.Int 12));
  let heap_reads = (Secondary_index.io heap).Io_stats.reads in
  Alcotest.(check bool)
    (Printf.sprintf "hash (%d) beats heap scan (%d)" hash_reads heap_reads)
    true
    (hash_reads * 10 < heap_reads)

let test_index_fetch_cost () =
  let store = make ~clustered:true in
  evolve store ~rounds:8;
  (* Figure 10's 2-level-index path: a hash index over the current
     versions only, then a fetch of each listed tuple from the primary
     store. *)
  let index =
    Secondary_index.build ~structure:Secondary_index.Hash_index
      ~key_type:Attr_type.I4
      (List.map
         (fun (tid, tu) -> (tu.(1), tid))
         (Two_level_store.current_tids store))
  in
  Two_level_store.reset_io store;
  let n = ref 0 in
  List.iter
    (fun tid ->
      let tu = Two_level_store.fetch_current store tid in
      if Value.equal tu.(1) (Value.Int 50) then incr n)
    (Secondary_index.lookup index (Value.Int 50));
  Alcotest.(check int) "one current match" 1 !n;
  (* only the primary store is touched for the data fetch: 1 page *)
  Alcotest.(check int) "one data page"
    1 (Two_level_store.io store).Io_stats.reads

let test_scan_all_both_levels () =
  (* Figure 10's Q03 column: a scan of every version reads each page of
     both levels once, and yields the current versions followed by the
     history versions. *)
  List.iter
    (fun clustered ->
      let store = make ~clustered in
      evolve store ~rounds:5;
      let label = if clustered then "clustered" else "simple" in
      Two_level_store.reset_io store;
      let rows = ref [] in
      Two_level_store.scan_all store (fun tu -> rows := tu :: !rows);
      Alcotest.(check int)
        (label ^ ": reads primary + history pages")
        (Two_level_store.primary_pages store
        + Two_level_store.history_pages store)
        (Two_level_store.io store).Io_stats.reads;
      let current = ref [] in
      Two_level_store.current_scan store (fun tu -> current := tu :: !current);
      let current = List.rev !current in
      let history =
        List.concat_map
          (fun cur ->
            let versions = ref [] in
            Two_level_store.version_scan store cur.(0) (fun tu ->
                versions := tu :: !versions);
            List.tl (List.rev !versions))
          current
      in
      let rows = List.rev !rows in
      let ncur = List.length current in
      Alcotest.(check int)
        (label ^ ": row count")
        (ncur + List.length history)
        (List.length rows);
      let key tu = Array.to_list (Array.map Value.to_string tu) in
      Alcotest.(check bool)
        (label ^ ": current versions first, in scan order")
        true
        (List.map key (List.filteri (fun i _ -> i < ncur) rows)
        = List.map key current);
      Alcotest.(check bool)
        (label ^ ": then every history version")
        true
        (List.sort compare
           (List.map key (List.filteri (fun i _ -> i >= ncur) rows))
        = List.sort compare (List.map key history)))
    [ false; true ]

let prop_index_complete =
  QCheck2.Test.make ~name:"secondary index: lookup finds every inserted tid"
    ~count:30
    QCheck2.Gen.(
      pair (oneofl [ Secondary_index.Heap_index; Secondary_index.Hash_index ])
        (list_size (int_range 0 300) (int_range 0 40)))
    (fun (structure, keys) ->
      let idx = Secondary_index.create ~structure ~key_type:Attr_type.I4 () in
      List.iteri
        (fun i k -> Secondary_index.insert idx (Value.Int k) { Tid.page = i; slot = 0 })
        keys;
      List.for_all
        (fun k ->
          let expected = List.length (List.filter (( = ) k) keys) in
          List.length (Secondary_index.lookup idx (Value.Int k)) = expected)
        (List.sort_uniq compare keys))

let suites =
  [
    ( "twostore",
      [
        Alcotest.test_case "history chain walk" `Quick test_history_store_chain;
        Alcotest.test_case "history capacity (7/page)" `Quick test_history_capacity;
        Alcotest.test_case "clusters don't share pages" `Quick
          test_clustering_separates_tuples;
        Alcotest.test_case "primary never grows" `Quick test_primary_never_grows;
        Alcotest.test_case "current queries constant cost" `Quick
          test_current_queries_constant_cost;
        Alcotest.test_case "version scan completeness" `Quick
          test_version_scan_completeness;
        Alcotest.test_case "clustered beats simple" `Quick
          test_clustered_version_scan_cheaper;
        Alcotest.test_case "equivalence with conventional" `Quick
          test_equivalence_with_conventional;
        Alcotest.test_case "delete" `Quick test_delete_removes_from_primary;
        Alcotest.test_case "append" `Quick test_append_visible;
        Alcotest.test_case "rejects non-temporal" `Quick test_rejects_non_temporal;
        Alcotest.test_case "index lookup" `Quick test_index_lookup;
        Alcotest.test_case "index insert/remove" `Quick test_index_insert_remove;
        Alcotest.test_case "index page economy" `Quick test_index_page_economy;
        Alcotest.test_case "hash index beats heap" `Quick
          test_hash_index_lookup_cheap;
        Alcotest.test_case "indexed lookup cost" `Quick test_index_fetch_cost;
        Alcotest.test_case "scan_all reads both levels once" `Quick
          test_scan_all_both_levels;
        QCheck_alcotest.to_alcotest prop_index_complete;
      ] );
  ]
