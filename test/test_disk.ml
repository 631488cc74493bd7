module Disk = Tdb_storage.Disk
module Page = Tdb_storage.Page
module Fault = Tdb_storage.Fault

let test_mem_basics () =
  let d = Disk.create_mem () in
  Alcotest.(check int) "empty" 0 (Disk.npages d);
  let a = Disk.allocate d in
  let b = Disk.allocate d in
  Alcotest.(check (list int)) "dense ids" [ 0; 1 ] [ a; b ];
  let p = Page.create () in
  Bytes.set p 100 'Z';
  Disk.write_page d a p;
  Alcotest.(check char) "read back" 'Z' (Bytes.get (Disk.read_page d a) 100);
  (* pages are copied on both sides: mutating the caller's buffer after a
     write must not leak into the store *)
  Bytes.set p 100 '!';
  Alcotest.(check char) "isolated" 'Z' (Bytes.get (Disk.read_page d a) 100);
  let r = Disk.read_page d a in
  Bytes.set r 100 '?';
  Alcotest.(check char) "reads are copies" 'Z' (Bytes.get (Disk.read_page d a) 100)

let test_bad_ids () =
  let d = Disk.create_mem () in
  ignore (Disk.allocate d);
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "negative id" true (raises (fun () -> ignore (Disk.read_page d (-1))));
  Alcotest.(check bool) "past the end" true (raises (fun () -> ignore (Disk.read_page d 1)));
  Alcotest.(check bool) "write past the end" true
    (raises (fun () -> Disk.write_page d 7 (Page.create ())));
  Alcotest.(check bool) "wrong page size" true
    (raises (fun () -> Disk.write_page d 0 (Bytes.create 10)))

let test_truncate () =
  let d = Disk.create_mem () in
  for _ = 1 to 5 do
    ignore (Disk.allocate d)
  done;
  Disk.truncate d;
  Alcotest.(check int) "empty again" 0 (Disk.npages d);
  Alcotest.(check int) "ids restart" 0 (Disk.allocate d)

let test_file_backend () =
  let path = Filename.temp_file "tdb_disk" ".pages" in
  let d = Disk.open_file path in
  Alcotest.(check bool) "file backed" true (Disk.is_file_backed d);
  let a = Disk.allocate d in
  let p = Page.create () in
  Bytes.set p 0 'F';
  Disk.write_page d a p;
  Disk.close d;
  let d2 = Disk.open_file path in
  Alcotest.(check int) "page survived" 1 (Disk.npages d2);
  Alcotest.(check char) "content survived" 'F' (Bytes.get (Disk.read_page d2 0) 0);
  Disk.truncate d2;
  Disk.close d2;
  Alcotest.(check int) "truncated on disk" 0
    (let d3 = Disk.open_file path in
     let n = Disk.npages d3 in
     Disk.close d3;
     n);
  Sys.remove path

let test_unaligned_file_rejected () =
  let path = Filename.temp_file "tdb_disk" ".pages" in
  let oc = open_out path in
  output_string oc "not a page multiple";
  close_out oc;
  (match Disk.open_file path with
  | exception Tdb_error.Error (Tdb_error.Corruption, _) -> ()
  | _ -> Alcotest.fail "unaligned file accepted");
  Sys.remove path

let with_pages n f =
  let path = Filename.temp_file "tdb_disk" ".pages" in
  let d = Disk.open_file path in
  for i = 0 to n - 1 do
    let id = Disk.allocate d in
    let p = Page.create () in
    Bytes.set p 0 (Char.chr (65 + i));
    Disk.write_page d id p
  done;
  Disk.close d;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let append_bytes path s =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

let test_recover_unaligned_tail () =
  with_pages 3 (fun path ->
      append_bytes path "torn tail from a crashed write";
      let d = Disk.open_file ~recover:true path in
      Alcotest.(check int) "pages survive" 3 (Disk.npages d);
      (match Disk.recovery_report d with
      | Some r ->
          Alcotest.(check bool) "repair reported" true
            (Disk.recovery_repaired r);
          Alcotest.(check int) "tail bytes dropped" 30 r.Disk.tail_bytes_dropped
      | None -> Alcotest.fail "no recovery report");
      Alcotest.(check char) "first page intact" 'A'
        (Bytes.get (Disk.read_page d 0) 0);
      Alcotest.(check char) "last page intact" 'C'
        (Bytes.get (Disk.read_page d 2) 0);
      Disk.close d;
      (* The repair is durable: a strict reopen succeeds. *)
      let d2 = Disk.open_file path in
      Alcotest.(check int) "clean after repair" 3 (Disk.npages d2);
      Disk.close d2)

let flip_byte path ~pos =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

let test_bit_flip_detected () =
  with_pages 3 (fun path ->
      (* Flip a byte in the middle page: not a torn tail, so neither the
         strict open (at read time) nor recovery may serve it as data. *)
      flip_byte path ~pos:(Page.size + 100);
      let d = Disk.open_file path in
      Alcotest.(check char) "good page still served" 'A'
        (Bytes.get (Disk.read_page d 0) 0);
      (match Disk.read_page d 1 with
      | exception Tdb_error.Error (Tdb_error.Corruption, _) -> ()
      | _ -> Alcotest.fail "bit flip served as tuple data");
      Disk.close d;
      match Disk.open_file ~recover:true path with
      | exception Tdb_error.Error (Tdb_error.Corruption, _) -> ()
      | d ->
          Disk.close d;
          Alcotest.fail "recovery accepted mid-file corruption")

let test_recover_torn_tail_page () =
  with_pages 3 (fun path ->
      (* Corrupt the LAST page: recovery may truncate it. *)
      flip_byte path ~pos:((2 * Page.size) + 100);
      let d = Disk.open_file ~recover:true path in
      Alcotest.(check int) "torn tail page dropped" 2 (Disk.npages d);
      (match Disk.recovery_report d with
      | Some r ->
          Alcotest.(check int) "one page dropped" 1 r.Disk.torn_pages_dropped
      | None -> Alcotest.fail "no recovery report");
      Alcotest.(check char) "survivors intact" 'B'
        (Bytes.get (Disk.read_page d 1) 0);
      Disk.close d)

let test_epoch_stamps () =
  let d = Disk.create_mem () in
  let id = Disk.allocate d in
  Disk.write_page d id (Page.create ());
  Alcotest.(check int) "initial epoch" (Disk.epoch d)
    (Page.get_epoch (Disk.read_page d id));
  Disk.bump_epoch d;
  Disk.write_page d id (Page.create ());
  Alcotest.(check int) "bumped epoch stamped" (Disk.epoch d)
    (Page.get_epoch (Disk.read_page d id))

(* Counting verifications needs the registered counters on; restore the
   previous setting whatever happens. *)
let verifies = Tdb_obs.Metric.counter "tdb_disk_page_verifies_total"

let counting_verifies f =
  let was = Tdb_obs.Metric.enabled () in
  Tdb_obs.Metric.set_enabled true;
  Fun.protect ~finally:(fun () -> Tdb_obs.Metric.set_enabled was) @@ fun () ->
  f (fun g ->
      let before = Tdb_obs.Metric.count verifies in
      g ();
      Tdb_obs.Metric.count verifies - before)

let page_with c =
  let p = Page.create () in
  Bytes.set p 0 c;
  p

let test_mem_verifies_once () =
  counting_verifies @@ fun verifications ->
  let d = Disk.create_mem () in
  let id = Disk.allocate d in
  Disk.write_page d id (page_with 'A');
  let read () = ignore (Disk.read_page d id) in
  Alcotest.(check int) "first read verifies" 1 (verifications read);
  Alcotest.(check int) "second read does not" 0 (verifications read);
  Alcotest.(check int) "nor does an image read" 0
    (verifications (fun () -> ignore (Disk.read_image d id)));
  Alcotest.(check bool) "image reads share the stored image" true
    (Disk.read_image d id == Disk.read_image d id);
  Disk.write_page d id (page_with 'B');
  Alcotest.(check int) "a rewritten page is verified again" 1
    (verifications read);
  (* the file backend verifies every physical read *)
  let path = Filename.temp_file "tdb_disk" ".pages" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let f = Disk.open_file path in
  let id = Disk.allocate f in
  let read () = ignore (Disk.read_page f id) in
  Alcotest.(check int) "file read verifies" 1 (verifications read);
  Alcotest.(check int) "and again" 1 (verifications read);
  Disk.close f

let test_torn_write_after_verify () =
  (* write #1 is the allocation, #2 the first image, #3 the torn one *)
  let fault = Fault.create ~seed:7 ~torn_write_at:3 () in
  let d = Disk.create_mem ~fault () in
  let id = Disk.allocate d in
  Disk.write_page d id (page_with 'A');
  let held = Disk.read_image d id in
  Alcotest.(check char) "verified image" 'A' (Bytes.get held 0);
  Disk.write_page d id (page_with 'B');
  (match Disk.read_page d id with
  | exception Tdb_error.Error (Tdb_error.Corruption, _) -> ()
  | _ -> Alcotest.fail "torn write into a verified page served as data");
  Alcotest.(check char) "a held image is never written through" 'A'
    (Bytes.get held 0)

let test_truncate_unverifies () =
  counting_verifies @@ fun verifications ->
  let d = Disk.create_mem () in
  let id = Disk.allocate d in
  Disk.write_page d id (page_with 'A');
  ignore (Disk.read_page d id);
  Disk.truncate d;
  let id' = Disk.allocate d in
  Alcotest.(check int) "ids restart" id id';
  let page = ref Bytes.empty in
  Alcotest.(check int) "the fresh image is verified at its first read" 1
    (verifications (fun () -> page := Disk.read_page d id'));
  Alcotest.(check char) "and holds the fresh page" '\000' (Bytes.get !page 0)

let test_fsync_smoke () =
  let d = Disk.create_mem () in
  Disk.fsync d;
  let path = Filename.temp_file "tdb_disk" ".pages" in
  let f = Disk.open_file path in
  ignore (Disk.allocate f);
  Disk.fsync f;
  Disk.close f;
  Sys.remove path

let suites =
  [
    ( "disk",
      [
        Alcotest.test_case "mem basics" `Quick test_mem_basics;
        Alcotest.test_case "bad ids" `Quick test_bad_ids;
        Alcotest.test_case "truncate" `Quick test_truncate;
        Alcotest.test_case "file backend" `Quick test_file_backend;
        Alcotest.test_case "unaligned file rejected" `Quick
          test_unaligned_file_rejected;
        Alcotest.test_case "recover unaligned tail" `Quick
          test_recover_unaligned_tail;
        Alcotest.test_case "bit flip detected" `Quick test_bit_flip_detected;
        Alcotest.test_case "recover torn tail page" `Quick
          test_recover_torn_tail_page;
        Alcotest.test_case "epoch stamps" `Quick test_epoch_stamps;
        Alcotest.test_case "fsync smoke" `Quick test_fsync_smoke;
        Alcotest.test_case "mem pages verify once" `Quick
          test_mem_verifies_once;
        Alcotest.test_case "torn write after verify" `Quick
          test_torn_write_after_verify;
        Alcotest.test_case "truncate unverifies" `Quick
          test_truncate_unverifies;
      ] );
  ]
