(* Access-path cursor conformance: for every access method, draining the
   cursor yields the same record multiset as the eager page/chain walk it
   replaced, with identical page I/O and identical fence skips — with and
   without a temporal window. *)

module Disk = Tdb_storage.Disk
module Buffer_pool = Tdb_storage.Buffer_pool
module Io_stats = Tdb_storage.Io_stats
module Pfile = Tdb_storage.Pfile
module Tid = Tdb_storage.Tid
module Cursor = Tdb_storage.Cursor
module Time_fence = Tdb_storage.Time_fence
module Heap_file = Tdb_storage.Heap_file
module Hash_file = Tdb_storage.Hash_file
module Isam_file = Tdb_storage.Isam_file
module Relation_file = Tdb_storage.Relation_file
module Schema = Tdb_relation.Schema
module Value = Tdb_relation.Value
module Attr_type = Tdb_relation.Attr_type
module Db_type = Tdb_relation.Db_type
module Chronon = Tdb_time.Chronon
module Period = Tdb_time.Period

(* 124-byte records (8 per page): an int32 key, then the four time
   chronons as int32 seconds.  Record [k] lives in transaction and valid
   period [10k, 10k+10), so time windows select contiguous key ranges and
   heap pages develop tight, disjoint fences. *)
let record_size = 124
let c s = Chronon.of_seconds s

let record k =
  let b = Bytes.make record_size '\000' in
  Bytes.set_int32_be b 0 (Int32.of_int k);
  Bytes.set_int32_be b 4 (Int32.of_int (k * 10));
  Bytes.set_int32_be b 8 (Int32.of_int ((k * 10) + 10));
  Bytes.set_int32_be b 12 (Int32.of_int (k * 10));
  Bytes.set_int32_be b 16 (Int32.of_int ((k * 10) + 10));
  b

let key_of b = Value.Int (Int32.to_int (Bytes.get_int32_be b 0))
let field b off = Int32.to_int (Bytes.get_int32_be b off)

let stamp b =
  Time_fence.stamp
    ~transaction:(Some (c (field b 4), c (field b 8)))
    ~valid:(Some (c (field b 12), c (field b 16)))

(* A window selecting records whose transaction period meets [lo, hi). *)
let window lo hi =
  { Time_fence.transaction = Some (Period.make (c lo) (c hi)); valid = None }

let fresh_pool () =
  let stats = Io_stats.create () in
  let pool = Buffer_pool.create (Disk.create_mem ()) stats in
  (pool, stats)

(* Run [f], observing page reads and fence skips from a cold cache. *)
let measure stats pool f =
  Buffer_pool.invalidate pool;
  Io_stats.reset stats;
  Time_fence.reset_pages_skipped ();
  let out = ref [] in
  f (fun tid record -> out := (tid, Bytes.to_string record) :: !out);
  ( List.sort compare !out,
    (Io_stats.snapshot stats).Io_stats.reads,
    Time_fence.pages_skipped () )

let check_same name (recs_c, reads_c, skips_c) (recs_d, reads_d, skips_d) =
  Alcotest.(check int)
    (name ^ ": same record count")
    (List.length recs_d) (List.length recs_c);
  Alcotest.(check bool) (name ^ ": same records") true (recs_c = recs_d);
  Alcotest.(check int) (name ^ ": same reads") reads_d reads_c;
  Alcotest.(check int) (name ^ ": same skips") skips_d skips_c

let n_records = 100

let test_heap_conformance () =
  let pool, stats = fresh_pool () in
  let h = Heap_file.create pool ~record_size in
  Pfile.enable_fences (Heap_file.pfile h) ~stamp;
  List.iter
    (fun k -> ignore (Heap_file.insert h (record k)))
    (List.init n_records Fun.id);
  let pf = Heap_file.pfile h in
  let direct ?window visit =
    for page = 0 to Pfile.npages pf - 1 do
      Pfile.page_iter ?window pf ~page visit
    done
  in
  List.iter
    (fun w ->
      let name = if w = None then "heap" else "heap+window" in
      check_same name
        (measure stats pool (fun visit ->
             Cursor.iter (Heap_file.scan_cursor ?window:w h) visit))
        (measure stats pool (fun visit -> direct ?window:w visit)))
    [ None; Some (window 305 455) ];
  (* The window genuinely prunes: a fenced walk must skip pages. *)
  let _, _, skips =
    measure stats pool (fun visit ->
        Cursor.iter (Heap_file.scan_cursor ~window:(window 305 455) h) visit)
  in
  Alcotest.(check bool) "heap window prunes" true (skips > 0)

let test_hash_conformance () =
  let pool, stats = fresh_pool () in
  let h =
    Hash_file.build pool ~record_size ~key_of ~fillfactor:50
      (List.map record (List.init n_records Fun.id))
  in
  let pf = Hash_file.pfile h in
  Pfile.enable_fences pf ~stamp;
  for b = 0 to Hash_file.buckets h - 1 do
    Pfile.rebuild_chain_fences pf ~head:b
  done;
  let direct_scan ?window visit =
    for b = 0 to Hash_file.buckets h - 1 do
      Pfile.chain_iter ?window pf ~head:b visit
    done
  in
  List.iter
    (fun w ->
      let name = if w = None then "hash scan" else "hash scan+window" in
      check_same name
        (measure stats pool (fun visit ->
             Cursor.iter (Hash_file.scan_cursor ?window:w h) visit))
        (measure stats pool (fun visit -> direct_scan ?window:w visit)))
    [ None; Some (window 305 455) ];
  (* Keyed probe: cursor vs an eager walk of the key's bucket chain. *)
  let key = Value.Int 42 in
  let direct_lookup ?window visit =
    Pfile.chain_iter ?window pf
      ~head:(Hash_file.bucket_of h key)
      (fun tid r -> if Value.equal (key_of r) key then visit tid r)
  in
  List.iter
    (fun w ->
      let name = if w = None then "hash probe" else "hash probe+window" in
      let (recs, _, _) as cur =
        measure stats pool (fun visit ->
            Cursor.iter (Hash_file.lookup_cursor ?window:w h key) visit)
      in
      check_same name cur
        (measure stats pool (fun visit -> direct_lookup ?window:w visit));
      if w = None then
        Alcotest.(check int) "hash probe finds its key" 1 (List.length recs))
    [ None; Some (window 0 5000) ]

let test_isam_conformance () =
  let pool, stats = fresh_pool () in
  let t =
    Isam_file.build pool ~record_size ~key_of ~key_type:Attr_type.I4
      ~fillfactor:100
      (List.map record (List.init n_records Fun.id))
  in
  let pf = Isam_file.pfile t in
  Pfile.enable_fences pf ~stamp;
  for p = 0 to Isam_file.data_pages t - 1 do
    Pfile.rebuild_chain_fences pf ~head:p
  done;
  let direct_scan ?window visit =
    for p = 0 to Isam_file.data_pages t - 1 do
      Pfile.chain_iter ?window pf ~head:p visit
    done
  in
  List.iter
    (fun w ->
      let name = if w = None then "isam scan" else "isam scan+window" in
      check_same name
        (measure stats pool (fun visit ->
             Cursor.iter (Isam_file.scan_cursor ?window:w t) visit))
        (measure stats pool (fun visit -> direct_scan ?window:w visit)))
    [ None; Some (window 305 455) ];
  (* Keyed and range probes: ground-truth content, bounded cost. *)
  let scan_reads =
    let _, reads, _ =
      measure stats pool (fun visit ->
          Cursor.iter (Isam_file.scan_cursor t) visit)
    in
    reads
  in
  let probe_budget = scan_reads + Isam_file.directory_pages t in
  let recs, reads, _ =
    measure stats pool (fun visit ->
        Cursor.iter (Isam_file.lookup_cursor t (Value.Int 42)) visit)
  in
  Alcotest.(check int) "isam probe finds its key" 1 (List.length recs);
  List.iter
    (fun (_, r) ->
      Alcotest.(check bool) "isam probe key" true
        (Value.equal (key_of (Bytes.of_string r)) (Value.Int 42)))
    recs;
  Alcotest.(check bool) "isam probe cheaper than scan" true
    (reads <= probe_budget);
  let recs, reads, _ =
    measure stats pool (fun visit ->
        Cursor.iter
          (Isam_file.range_cursor t ~lo:(Some (Value.Int 10))
             ~hi:(Some (Value.Int 19)))
          visit)
  in
  Alcotest.(check int) "isam range finds 10..19" 10 (List.length recs);
  Alcotest.(check bool) "isam range bounded cost" true (reads <= probe_budget)

(* The page steps' filter: testing each used slot in a scratch record
   and copying only the survivors must yield exactly the (tid, record)
   lists that copying every record and filtering afterwards does — step
   by step, successor links included — after the same reads, for every
   access method, with and without a fence window. *)
let test_filtered_step () =
  let keep record = field record 0 mod 3 = 0 in
  let copied recs = List.map (fun (tid, r) -> (tid, Bytes.to_string r)) recs in
  (* every step of a whole-file walk: one per page, or one per chain page *)
  let steps ~heads ?window ?filter pf =
    match heads with
    | None ->
        List.init (Pfile.npages pf) (fun page ->
            (page, copied (Pfile.page_step ?window ?filter pf ~page), None))
    | Some heads ->
        List.concat_map
          (fun head ->
            let rec go acc page =
              let recs, next = Pfile.chain_step ?window ?filter pf ~page in
              let acc = (page, copied recs, next) :: acc in
              match next with Some n -> go acc n | None -> List.rev acc
            in
            go [] head)
          (List.init heads Fun.id)
  in
  let check name ~heads pf stats =
    List.iter
      (fun w ->
        let name = if w = None then name else name ^ "+window" in
        let observe filter =
          Buffer_pool.invalidate (Pfile.pool pf);
          Io_stats.reset stats;
          let s = steps ~heads ?window:w ?filter pf in
          (s, Io_stats.reads stats)
        in
        let all, reads = observe None in
        let kept, reads_k = observe (Some keep) in
        let filter_after =
          List.map
            (fun (page, recs, next) ->
              ( page,
                List.filter (fun (_, r) -> keep (Bytes.of_string r)) recs,
                next ))
            all
        in
        Alcotest.(check bool)
          (name ^ ": filtered steps = filter after copy")
          true (kept = filter_after);
        Alcotest.(check bool) (name ^ ": the filter drops records") true
          (List.length (List.concat_map (fun (_, r, _) -> r) kept)
          < List.length (List.concat_map (fun (_, r, _) -> r) all));
        Alcotest.(check int) (name ^ ": same reads") reads reads_k)
      [ None; Some (window 305 455) ]
  in
  let records = List.map record (List.init n_records Fun.id) in
  (let pool, stats = fresh_pool () in
   let h = Heap_file.create pool ~record_size in
   Pfile.enable_fences (Heap_file.pfile h) ~stamp;
   List.iter (fun r -> ignore (Heap_file.insert h r)) records;
   check "heap" ~heads:None (Heap_file.pfile h) stats);
  (let pool, stats = fresh_pool () in
   let h = Hash_file.build pool ~record_size ~key_of ~fillfactor:50 records in
   let pf = Hash_file.pfile h in
   Pfile.enable_fences pf ~stamp;
   for b = 0 to Hash_file.buckets h - 1 do
     Pfile.rebuild_chain_fences pf ~head:b
   done;
   check "hash" ~heads:(Some (Hash_file.buckets h)) pf stats);
  let pool, stats = fresh_pool () in
  let t =
    Isam_file.build pool ~record_size ~key_of ~key_type:Attr_type.I4
      ~fillfactor:100 records
  in
  let pf = Isam_file.pfile t in
  Pfile.enable_fences pf ~stamp;
  for p = 0 to Isam_file.data_pages t - 1 do
    Pfile.rebuild_chain_fences pf ~head:p
  done;
  check "isam" ~heads:(Some (Isam_file.data_pages t)) pf stats

(* --- partitioned scans (the parallel executor's fan-out contract) ---

   For every organization and partition count: concatenating the
   partition cursors in list order reproduces the sequential cursor's
   rows exactly (which implies the multiset union), no data page appears
   in two partitions, and the partitions' summed reads plus fence skips
   conserve the sequential scan's. *)

let ts_attr name ty = { Schema.name; ty }

let pr_n = 100

let pr_schema =
  Schema.create_exn
    ~db_type:(Db_type.Temporal Db_type.Interval)
    [
      ts_attr "id" Attr_type.I4;
      ts_attr "amount" Attr_type.I4;
      ts_attr "seq" Attr_type.I4;
      ts_attr "string" (Attr_type.C 96);
    ]

(* Tuple [k] lives in transaction and valid period [10k, 10k+10), exactly
   like [record k] above, so windows select contiguous key ranges. *)
let pr_tuple k =
  [|
    Value.Int k;
    Value.Int (k * 10);
    Value.Int 0;
    Value.Str "x";
    Value.Time (c (k * 10));
    Value.Time (c ((k * 10) + 10));
    Value.Time (c (k * 10));
    Value.Time (c ((k * 10) + 10));
  |]

let pr_rel org =
  let rel = Relation_file.create ~name:"part" ~schema:pr_schema () in
  for k = 0 to pr_n - 1 do
    ignore (Relation_file.insert rel (pr_tuple k))
  done;
  Option.iter (Relation_file.modify rel) org;
  rel

let drain_cursor cursor =
  let out = ref [] in
  Cursor.iter cursor (fun tid r -> out := (tid, Bytes.to_string r) :: !out);
  List.rev !out

(* A full scan always has a partition shape. *)
let full_partitions ?window rel ~parts =
  Option.get
    (Relation_file.partition_access ?window rel ~parts Relation_file.Full_scan)

let sum_reads stats_list =
  List.fold_left
    (fun acc s -> acc + (Io_stats.snapshot s).Io_stats.reads)
    0 stats_list

let pairwise_disjoint page_sets =
  let rec go = function
    | [] -> true
    | p :: rest ->
        List.for_all
          (fun q -> List.for_all (fun x -> not (List.mem x q)) p)
          rest
        && go rest
  in
  go page_sets

let check_partitions ~expect_prune name rel window parts =
  Buffer_pool.invalidate (Relation_file.pool rel);
  Io_stats.reset (Relation_file.stats rel);
  Time_fence.reset_pages_skipped ();
  let rows_seq =
    drain_cursor (Relation_file.cursor ?window rel Relation_file.Full_scan)
  in
  let reads_seq = (Io_stats.snapshot (Relation_file.stats rel)).Io_stats.reads in
  let skips_seq = Time_fence.pages_skipped () in
  Time_fence.reset_pages_skipped ();
  let ps = full_partitions ?window rel ~parts in
  let drains = List.map (fun (cursor, _) -> drain_cursor cursor) ps in
  let skips_par = Time_fence.pages_skipped () in
  let reads_par = sum_reads (List.map snd ps) in
  Alcotest.(check bool) (name ^ ": at most requested parts") true
    (List.length ps <= max 1 parts);
  Alcotest.(check bool)
    (name ^ ": concatenation = sequential") true
    (List.concat drains = rows_seq);
  Alcotest.(check int)
    (name ^ ": reads+skips conserved")
    (reads_seq + skips_seq) (reads_par + skips_par);
  let page_sets =
    List.map
      (fun rows ->
        List.sort_uniq compare
          (List.map (fun ((tid : Tid.t), _) -> tid.Tid.page) rows))
      drains
  in
  Alcotest.(check bool) (name ^ ": page-disjoint") true
    (pairwise_disjoint page_sets);
  if window <> None && expect_prune then
    Alcotest.(check bool)
      (name ^ ": the window still prunes")
      true
      (skips_par + skips_seq > 0)

let part_counts = [ 1; 2; 3; 7 ]

let test_partition_conformance () =
  List.iter
    (fun (label, expect_prune, org) ->
      let rel = pr_rel org in
      List.iter
        (fun parts ->
          List.iter
            (fun w ->
              let name =
                Printf.sprintf "%s parts=%d%s" label parts
                  (if w = None then "" else "+window")
              in
              check_partitions ~expect_prune name rel w parts)
            [ None; Some (window 305 455) ])
        part_counts)
    [
      (* Insertion (heap) and key (ISAM) order track the stamps, so
         their pages develop tight fences the window can prune; hashing
         scatters the keys, so hash pages keep wide fences — the
         conservation equality is what matters there. *)
      ("heap", true, None);
      ("hash", false, Some (Relation_file.Hash { key_attr = 0; fillfactor = 50 }));
      ("isam", true, Some (Relation_file.Isam { key_attr = 0; fillfactor = 100 }));
    ]

(* Shard-level pruning: a window past every stamp refutes every shard at
   partition-build time, so no worker is assigned any pages (the list
   collapses to one empty partition), nothing is read, and the skip
   accounting still matches the sequential fenced scan page for page. *)
let test_shard_prune_zero_assignment () =
  List.iter
    (fun (label, org) ->
      let rel = pr_rel org in
      let w = Some (window 5000 5100) in
      (* Sequential fenced scan: the baseline skip count. *)
      Buffer_pool.invalidate (Relation_file.pool rel);
      Io_stats.reset (Relation_file.stats rel);
      Time_fence.reset_pages_skipped ();
      let rows_seq =
        drain_cursor (Relation_file.cursor ?window:w rel Relation_file.Full_scan)
      in
      let reads_seq =
        (Io_stats.snapshot (Relation_file.stats rel)).Io_stats.reads
      in
      let skips_seq = Time_fence.pages_skipped () in
      Alcotest.(check int) (label ^ ": sequential reads nothing") 0 reads_seq;
      Alcotest.(check int) (label ^ ": sequential rows empty") 0
        (List.length rows_seq);
      (* The partition build must refute every shard up front. *)
      (match
         Relation_file.partition_preview ?window:w rel ~parts:4
           Relation_file.Full_scan
       with
      | None -> Alcotest.failf "%s: full scan must preview" label
      | Some p ->
          Alcotest.(check int) (label ^ ": preview sees no live pages") 0
            p.Relation_file.pp_pages);
      Alcotest.(check int)
        (label ^ ": preview collapses to one partition")
        1
        (Option.get
           (Relation_file.partition_preview ?window:w rel ~parts:4
              Relation_file.Full_scan))
          .Relation_file.pp_parts;
      Io_stats.reset (Relation_file.stats rel);
      Time_fence.reset_pages_skipped ();
      let ps = full_partitions ?window:w rel ~parts:4 in
      let drains = List.map (fun (cursor, _) -> drain_cursor cursor) ps in
      Alcotest.(check int) (label ^ ": one empty partition") 1 (List.length ps);
      Alcotest.(check int) (label ^ ": zero rows assigned") 0
        (List.length (List.concat drains));
      Alcotest.(check int)
        (label ^ ": zero reads")
        0
        (sum_reads (List.map snd ps)
        + (Io_stats.snapshot (Relation_file.stats rel)).Io_stats.reads);
      Alcotest.(check int)
        (label ^ ": skips match the sequential fenced scan")
        skips_seq (Time_fence.pages_skipped ()))
    [
      ("heap", None);
      ("hash", Some (Relation_file.Hash { key_attr = 0; fillfactor = 50 }));
      ("isam", Some (Relation_file.Isam { key_attr = 0; fillfactor = 100 }));
    ]

(* Keyed and range probes through [partition_access]: concatenating the
   partitions reproduces the sequential probe cursor's rows, pages stay
   disjoint, and reads plus fence skips are conserved — including the
   charged ISAM directory descent. *)
let check_probe_partitions name rel window parts access =
  Buffer_pool.invalidate (Relation_file.pool rel);
  Io_stats.reset (Relation_file.stats rel);
  Time_fence.reset_pages_skipped ();
  let rows_seq = drain_cursor (Relation_file.cursor ?window rel access) in
  let reads_seq = (Io_stats.snapshot (Relation_file.stats rel)).Io_stats.reads in
  let skips_seq = Time_fence.pages_skipped () in
  (* Both measurements start cold: the ISAM descent at partition-build
     time goes through the relation's shared pool, like the sequential
     cursor open. *)
  Buffer_pool.invalidate (Relation_file.pool rel);
  Io_stats.reset (Relation_file.stats rel);
  Time_fence.reset_pages_skipped ();
  match Relation_file.partition_access ?window rel ~parts access with
  | None -> Alcotest.failf "%s: expected a partitionable access" name
  | Some ps ->
      let drains = List.map (fun (cursor, _) -> drain_cursor cursor) ps in
      let skips_par = Time_fence.pages_skipped () in
      (* The ISAM descent is charged to the relation's own counters at
         partition-build time, exactly as the sequential cursor open
         charges it. *)
      let reads_par =
        sum_reads (List.map snd ps)
        + (Io_stats.snapshot (Relation_file.stats rel)).Io_stats.reads
      in
      Alcotest.(check bool) (name ^ ": at most requested parts") true
        (List.length ps <= max 1 parts);
      Alcotest.(check bool)
        (name ^ ": concatenation = sequential") true
        (List.concat drains = rows_seq);
      Alcotest.(check int)
        (name ^ ": reads+skips conserved")
        (reads_seq + skips_seq) (reads_par + skips_par);
      let page_sets =
        List.map
          (fun rows ->
            List.sort_uniq compare
              (List.map (fun ((tid : Tid.t), _) -> tid.Tid.page) rows))
          drains
      in
      Alcotest.(check bool) (name ^ ": page-disjoint") true
        (pairwise_disjoint page_sets)

let test_probe_partition_conformance () =
  let probes =
    [
      ("lookup-hit", Relation_file.Key_lookup (Value.Int 50));
      ("lookup-miss", Relation_file.Key_lookup (Value.Int 5000));
      ( "range",
        Relation_file.Key_range
          { lo = Some (Value.Int 20); hi = Some (Value.Int 60) } );
      ("range-open", Relation_file.Key_range { lo = None; hi = None });
    ]
  in
  List.iter
    (fun (label, org) ->
      let rel = pr_rel org in
      List.iter
        (fun parts ->
          List.iter
            (fun w ->
              List.iter
                (fun (tag, access) ->
                  let name =
                    Printf.sprintf "%s %s parts=%d%s" label tag parts
                      (if w = None then "" else "+window")
                  in
                  check_probe_partitions name rel w parts access)
                probes)
            [ None; Some (window 305 455) ])
        part_counts)
    [
      ("hash", Some (Relation_file.Hash { key_attr = 0; fillfactor = 50 }));
      ("isam", Some (Relation_file.Isam { key_attr = 0; fillfactor = 100 }));
      ("heap", None);
    ]

let test_partition_empty () =
  let rel = Relation_file.create ~name:"empty_part" ~schema:pr_schema () in
  let ps = full_partitions rel ~parts:4 in
  Alcotest.(check int) "one partition" 1 (List.length ps);
  Alcotest.(check int) "no rows" 0
    (List.length (drain_cursor (fst (List.hd ps))))

(* A record filter inside the cursor: with [keep], every access path
   yields exactly the unfiltered cursor's records that pass [keep], in
   the same order, after the same reads, fence checks and skips —
   sequentially and partitioned alike. *)
let fence_checks = Tdb_obs.Metric.counter "tdb_prune_fence_checks_total"

let drain_access ?keep ?parts rel window access =
  match parts with
  | None -> (drain_cursor (Relation_file.cursor ?window ?keep rel access), 0)
  | Some parts -> (
      match Relation_file.partition_access ?window ?keep rel ~parts access with
      | None -> Alcotest.fail "expected a partitionable access"
      | Some ps ->
          ( List.concat_map (fun (cursor, _) -> drain_cursor cursor) ps,
            sum_reads (List.map snd ps) ))

(* rows, reads (private partition pools plus the relation's own, which
   an ISAM descent charges), fence checks and skips, from a cold pool *)
let observe_access ?keep ?parts rel window access =
  Buffer_pool.invalidate (Relation_file.pool rel);
  Io_stats.reset (Relation_file.stats rel);
  Time_fence.reset_pages_skipped ();
  let checks = Tdb_obs.Metric.count fence_checks in
  let rows, private_reads = drain_access ?keep ?parts rel window access in
  ( rows,
    private_reads + (Io_stats.snapshot (Relation_file.stats rel)).Io_stats.reads,
    Tdb_obs.Metric.count fence_checks - checks,
    Time_fence.pages_skipped () )

let test_keep_conformance () =
  let metrics = Tdb_obs.Metric.enabled () in
  Tdb_obs.Metric.set_enabled true;
  Fun.protect ~finally:(fun () -> Tdb_obs.Metric.set_enabled metrics)
  @@ fun () ->
  let keep record = field record 0 mod 3 = 0 in
  let accesses =
    [
      ("scan", Relation_file.Full_scan);
      ("lookup", Relation_file.Key_lookup (Value.Int 50));
      ( "range",
        Relation_file.Key_range
          { lo = Some (Value.Int 20); hi = Some (Value.Int 60) } );
    ]
  in
  List.iter
    (fun (label, org) ->
      let rel = pr_rel org in
      List.iter
        (fun (tag, access) ->
          List.iter
            (fun w ->
              List.iter
                (fun parts ->
                  let name =
                    Printf.sprintf "%s %s%s%s" label tag
                      (match parts with
                      | None -> ""
                      | Some p -> Printf.sprintf " parts=%d" p)
                      (if w = None then "" else "+window")
                  in
                  let rows, reads, checks, skips =
                    observe_access ?parts rel w access
                  in
                  let rows_k, reads_k, checks_k, skips_k =
                    observe_access ~keep ?parts rel w access
                  in
                  Alcotest.(check bool)
                    (name ^ ": kept rows = filtered rows, in order")
                    true
                    (rows_k
                    = List.filter
                        (fun (_, r) -> keep (Bytes.of_string r))
                        rows);
                  Alcotest.(check bool) (name ^ ": keep filters something")
                    true
                    (rows = [] || List.length rows_k < List.length rows);
                  Alcotest.(check int) (name ^ ": same reads") reads reads_k;
                  Alcotest.(check int)
                    (name ^ ": same fence checks")
                    checks checks_k;
                  Alcotest.(check int) (name ^ ": same skips") skips skips_k)
                [ None; Some 1; Some 3 ])
            [ None; Some (window 305 455) ])
        accesses)
    [
      ("heap", None);
      ("hash", Some (Relation_file.Hash { key_attr = 0; fillfactor = 50 }));
      ("isam", Some (Relation_file.Isam { key_attr = 0; fillfactor = 100 }));
    ]

let suites =
  [
    ( "cursor",
      [
        Alcotest.test_case "heap conformance" `Quick test_heap_conformance;
        Alcotest.test_case "hash conformance" `Quick test_hash_conformance;
        Alcotest.test_case "isam conformance" `Quick test_isam_conformance;
        Alcotest.test_case "filtered step = filter after copy" `Quick
          test_filtered_step;
        Alcotest.test_case "partition conformance" `Quick
          test_partition_conformance;
        Alcotest.test_case "shard pruning: zero assignments" `Quick
          test_shard_prune_zero_assignment;
        Alcotest.test_case "probe partition conformance" `Quick
          test_probe_partition_conformance;
        Alcotest.test_case "partitioning an empty relation" `Quick
          test_partition_empty;
        Alcotest.test_case "keep filter conformance" `Quick
          test_keep_conformance;
      ] );
  ]
