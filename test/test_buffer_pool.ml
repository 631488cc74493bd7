module Disk = Tdb_storage.Disk
module Buffer_pool = Tdb_storage.Buffer_pool
module Io_stats = Tdb_storage.Io_stats
module Page = Tdb_storage.Page
module Fault = Tdb_storage.Fault

let make ?(frames = 1) () =
  let disk = Disk.create_mem () in
  let stats = Io_stats.create () in
  (Buffer_pool.create ~frames disk stats, stats)

let test_allocate_is_not_a_read () =
  let pool, stats = make () in
  let id = Buffer_pool.allocate pool in
  Alcotest.(check int) "first page id" 0 id;
  Alcotest.(check int) "no reads" 0 (Io_stats.reads stats);
  ignore (Buffer_pool.read pool id);
  Alcotest.(check int) "resident page costs nothing" 0 (Io_stats.reads stats)

let test_miss_counts_read () =
  let pool, stats = make () in
  let a = Buffer_pool.allocate pool in
  let b = Buffer_pool.allocate pool in
  (* b evicted a; a must be fetched again *)
  ignore (Buffer_pool.read pool a);
  Alcotest.(check int) "one miss" 1 (Io_stats.reads stats);
  ignore (Buffer_pool.read pool a);
  Alcotest.(check int) "second access is a hit" 1 (Io_stats.reads stats);
  ignore (Buffer_pool.read pool b);
  Alcotest.(check int) "alternating with 1 frame misses" 2 (Io_stats.reads stats)

let test_dirty_eviction_counts_write () =
  let pool, stats = make () in
  let a = Buffer_pool.allocate pool in
  (* the freshly allocated page is dirty *)
  let _b = Buffer_pool.allocate pool in
  Alcotest.(check int) "eviction flushed the dirty page" 1 (Io_stats.writes stats);
  ignore (Buffer_pool.read pool a);
  let before = Io_stats.writes stats in
  let _c = Buffer_pool.allocate pool in
  Alcotest.(check int) "clean eviction does not write" before
    (Io_stats.writes stats)

let test_modify_persists () =
  let pool, _stats = make () in
  let a = Buffer_pool.allocate pool in
  Buffer_pool.modify pool a (fun page -> Bytes.set page 0 'X');
  let _b = Buffer_pool.allocate pool in
  (* a was evicted and written back; reading it must return the new bytes *)
  let page = Buffer_pool.read pool a in
  Alcotest.(check char) "modification persisted" 'X' (Bytes.get page 0)

let test_flush_keeps_resident () =
  let pool, stats = make () in
  let a = Buffer_pool.allocate pool in
  Buffer_pool.flush pool;
  Alcotest.(check int) "flush wrote the dirty frame" 1 (Io_stats.writes stats);
  ignore (Buffer_pool.read pool a);
  Alcotest.(check int) "still resident" 0 (Io_stats.reads stats);
  Buffer_pool.flush pool;
  Alcotest.(check int) "clean flush writes nothing" 1 (Io_stats.writes stats)

let test_invalidate () =
  let pool, stats = make () in
  let a = Buffer_pool.allocate pool in
  Buffer_pool.invalidate pool;
  ignore (Buffer_pool.read pool a);
  Alcotest.(check int) "page must be re-fetched" 1 (Io_stats.reads stats)

let test_lru_with_multiple_frames () =
  let pool, stats = make ~frames:2 () in
  let a = Buffer_pool.allocate pool in
  let b = Buffer_pool.allocate pool in
  Alcotest.(check int) "both fit" 0 (Io_stats.reads stats);
  ignore (Buffer_pool.read pool a);
  (* now a is more recent than b *)
  let _c = Buffer_pool.allocate pool in
  (* c should evict b (LRU), keeping a *)
  ignore (Buffer_pool.read pool a);
  Alcotest.(check int) "a stayed resident" 0 (Io_stats.reads stats);
  ignore (Buffer_pool.read pool b);
  Alcotest.(check int) "b was evicted" 1 (Io_stats.reads stats)

let test_sequential_scan_cost () =
  (* With 1 frame, scanning n pages costs exactly n reads - the paper's
     set-up. *)
  let pool, stats = make () in
  for _ = 1 to 10 do
    ignore (Buffer_pool.allocate pool)
  done;
  Buffer_pool.invalidate pool;
  Io_stats.reset stats;
  for i = 0 to 9 do
    ignore (Buffer_pool.read pool i)
  done;
  Alcotest.(check int) "10 pages = 10 reads" 10 (Io_stats.reads stats)

let test_file_backed_round_trip () =
  let path = Filename.temp_file "tdb_test" ".pages" in
  let disk = Disk.open_file path in
  let stats = Io_stats.create () in
  let pool = Buffer_pool.create disk stats in
  let a = Buffer_pool.allocate pool in
  Buffer_pool.modify pool a (fun page -> Bytes.set page 7 '!');
  Buffer_pool.flush pool;
  Disk.close disk;
  (* Reopen and verify durability. *)
  let disk2 = Disk.open_file path in
  Alcotest.(check int) "page count persisted" 1 (Disk.npages disk2);
  let page = Disk.read_page disk2 0 in
  Alcotest.(check char) "byte persisted" '!' (Bytes.get page 7);
  Disk.close disk2;
  Sys.remove path

let test_failed_read_does_not_poison_frame () =
  (* An injected EIO on the fetch must not leave a stale or half-filled
     frame claiming to hold the page: the retry must hit the disk again
     and succeed. *)
  let fault = Fault.create ~eio_read_at:1 () in
  let disk = Disk.create_mem ~fault () in
  let stats = Io_stats.create () in
  let pool = Buffer_pool.create ~frames:1 disk stats in
  let a = Buffer_pool.allocate pool in
  Buffer_pool.modify pool a (fun page -> Bytes.set page 0 'V');
  let _b = Buffer_pool.allocate pool in
  (* a was evicted; this read is disk-read #1 and fails *)
  (match Buffer_pool.read pool a with
  | exception Tdb_error.Error (Tdb_error.Io, _) -> ()
  | _ -> Alcotest.fail "injected EIO not raised");
  let page = Buffer_pool.read pool a in
  Alcotest.(check char) "retry refetches and succeeds" 'V' (Bytes.get page 0);
  Alcotest.(check int) "both attempts hit the disk" 2 (Fault.reads fault)

let test_write_split_by_cause () =
  (* The single write counter of the paper splits into eviction writes and
     sync writes; the two causes must always sum to the total. *)
  let pool, stats = make () in
  let a = Buffer_pool.allocate pool in
  Buffer_pool.modify pool a (fun page -> Bytes.set page 0 'a');
  let _b = Buffer_pool.allocate pool in
  (* a evicted dirty *)
  Alcotest.(check int) "eviction write" 1 (Io_stats.eviction_writes stats);
  Alcotest.(check int) "no sync write yet" 0 (Io_stats.sync_writes stats);
  Buffer_pool.flush pool;
  (* b flushed dirty in place *)
  Alcotest.(check int) "flush is a sync write" 1 (Io_stats.sync_writes stats);
  Alcotest.(check int) "eviction count unchanged" 1
    (Io_stats.eviction_writes stats);
  Alcotest.(check int) "causes sum to the total"
    (Io_stats.writes stats)
    (Io_stats.eviction_writes stats + Io_stats.sync_writes stats);
  Alcotest.(check int) "total is 2" 2 (Io_stats.writes stats)

let test_sync_reaches_disk () =
  let path = Filename.temp_file "tdb_test" ".pages" in
  let disk = Disk.open_file path in
  let stats = Io_stats.create () in
  let pool = Buffer_pool.create disk stats in
  let a = Buffer_pool.allocate pool in
  Buffer_pool.modify pool a (fun page -> Bytes.set page 3 'S');
  Buffer_pool.sync pool;
  Disk.close disk;
  let disk2 = Disk.open_file path in
  Alcotest.(check char) "synced byte on disk" 'S'
    (Bytes.get (Disk.read_page disk2 0) 3);
  Disk.close disk2;
  Sys.remove path

let test_modify_does_not_leak () =
  (* Two pools over one mem disk, as partition pools and snapshot reader
     views are: their frames share the stored image, so a write through
     one must reach neither the store nor the other pool before it is
     written back. *)
  let disk = Disk.create_mem () in
  let writer = Buffer_pool.create disk (Io_stats.create ()) in
  let reader_stats = Io_stats.create () in
  let reader = Buffer_pool.create disk reader_stats in
  let a = Buffer_pool.allocate writer in
  Buffer_pool.modify writer a (fun page -> Bytes.set page 0 'A');
  Buffer_pool.invalidate writer;
  let seen = Buffer_pool.read reader a in
  Alcotest.(check bool) "a miss reads the stored image, uncopied" true
    (seen == Disk.read_image disk a);
  Alcotest.(check int) "and counts one read" 1 (Io_stats.reads reader_stats);
  ignore (Buffer_pool.read writer a);
  Buffer_pool.modify writer a (fun page -> Bytes.set page 0 'B');
  Alcotest.(check char) "the writer sees its write" 'B'
    (Bytes.get (Buffer_pool.read writer a) 0);
  Alcotest.(check char) "the store does not" 'A'
    (Bytes.get (Disk.read_page disk a) 0);
  Alcotest.(check char) "nor does the other pool's frame" 'A'
    (Bytes.get (Buffer_pool.read reader a) 0);
  Buffer_pool.flush writer;
  Alcotest.(check char) "written back on flush" 'B'
    (Bytes.get (Disk.read_page disk a) 0);
  Alcotest.(check char) "a frame keeps the image it read" 'A'
    (Bytes.get (Buffer_pool.read reader a) 0);
  Buffer_pool.invalidate reader;
  Alcotest.(check char) "a fresh miss sees the new image" 'B'
    (Bytes.get (Buffer_pool.read reader a) 0)

let suites =
  [
    ( "buffer_pool",
      [
        Alcotest.test_case "allocate is not a read" `Quick test_allocate_is_not_a_read;
        Alcotest.test_case "miss counts read" `Quick test_miss_counts_read;
        Alcotest.test_case "dirty eviction counts write" `Quick
          test_dirty_eviction_counts_write;
        Alcotest.test_case "modify persists" `Quick test_modify_persists;
        Alcotest.test_case "flush keeps resident" `Quick test_flush_keeps_resident;
        Alcotest.test_case "invalidate" `Quick test_invalidate;
        Alcotest.test_case "LRU with 2 frames" `Quick test_lru_with_multiple_frames;
        Alcotest.test_case "sequential scan cost" `Quick test_sequential_scan_cost;
        Alcotest.test_case "file-backed round trip" `Quick test_file_backed_round_trip;
        Alcotest.test_case "failed read does not poison frame" `Quick
          test_failed_read_does_not_poison_frame;
        Alcotest.test_case "write split by cause" `Quick test_write_split_by_cause;
        Alcotest.test_case "sync reaches disk" `Quick test_sync_reaches_disk;
        Alcotest.test_case "modify does not leak into shared images" `Quick
          test_modify_does_not_leak;
      ] );
  ]
