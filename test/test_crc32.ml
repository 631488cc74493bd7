module Crc32 = Tdb_storage.Crc32

(* The bytewise table-driven CRC-32 the storage layer used before the
   slicing kernel; every page trailer and journal frame on disk was
   written with these bits, so the kernel must reproduce them exactly. *)
let reference_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let reference crc buf ~pos ~len =
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c :=
      reference_table.((!c lxor Char.code (Bytes.get buf i)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let random_bytes st n = Bytes.init n (fun _ -> Char.chr (Random.State.int st 256))

let test_known_answers () =
  Alcotest.(check int) "check value of 123456789" 0xCBF43926
    (Crc32.string "123456789");
  Alcotest.(check int) "empty string" 0 (Crc32.string "");
  Alcotest.(check int) "zeroed page, the 1020 bytes Page.seal covers"
    0x67BBAF86
    (Crc32.digest (Bytes.make 1024 '\000') ~pos:0 ~len:1020)

(* Every length up to just past a page, from every start offset within a
   16-byte round and from a random running checksum, so both the word
   loop and the bytewise tail see every alignment and remainder. *)
let test_matches_reference () =
  let st = Random.State.make [| 0xC3C32 |] in
  let buf = random_bytes st (1100 + 15) in
  for len = 0 to 1100 do
    let pos = Random.State.int st 16 in
    let seed = Random.State.bits st land 0xFFFFFFFF in
    let expected = reference seed buf ~pos ~len in
    let got = Crc32.update seed buf ~pos ~len in
    if got <> expected then
      Alcotest.failf "pos %d len %d seed %08x: got %08x, expected %08x" pos len
        seed got expected
  done

let test_chained_updates () =
  let st = Random.State.make [| 271828 |] in
  let buf = random_bytes st 1020 in
  let whole = Crc32.digest buf in
  for k = 0 to 1020 do
    let first = Crc32.update 0 buf ~pos:0 ~len:k in
    Alcotest.(check int)
      (Printf.sprintf "split at %d" k)
      whole
      (Crc32.update first buf ~pos:k ~len:(1020 - k))
  done

let test_out_of_range () =
  let buf = Bytes.make 64 'x' in
  let raises name f =
    Alcotest.(check bool) name true
      (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  raises "negative pos" (fun () -> Crc32.update 0 buf ~pos:(-1) ~len:4);
  raises "negative len" (fun () -> Crc32.update 0 buf ~pos:0 ~len:(-1));
  raises "past the end" (fun () -> Crc32.update 0 buf ~pos:49 ~len:16);
  raises "pos + len overflows" (fun () -> Crc32.update 0 buf ~pos:1 ~len:max_int);
  raises "digest pos past the end" (fun () -> Crc32.digest ~pos:65 buf);
  Alcotest.(check int) "the last byte is in range"
    (reference 0 buf ~pos:48 ~len:16)
    (Crc32.update 0 buf ~pos:48 ~len:16)

let test_no_allocation () =
  let page = random_bytes (Random.State.make [| 7 |]) 1020 in
  ignore (Crc32.digest page);
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Crc32.digest page))
  done;
  let after = Gc.minor_words () in
  (* The slack covers the float [Gc.minor_words] itself boxes; one word
     per call would already exceed it. *)
  let grown = after -. before in
  if grown > 16. then
    Alcotest.failf "1000 digests allocated %.0f minor words" grown

(* Checksums run on whichever domain reads a page: parallel partition
   workers and snapshot readers.  Four domains start checksumming at once
   and must all agree with the reference. *)
let test_concurrent_domains () =
  let st = Random.State.make [| 161803 |] in
  let pages = Array.init 8 (fun _ -> random_bytes st 1020) in
  let expected = Array.map (fun p -> reference 0 p ~pos:0 ~len:1020) pages in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let ok = ref true in
            for r = 0 to 199 do
              let i = r mod Array.length pages in
              if Crc32.digest pages.(i) <> expected.(i) then ok := false
            done;
            !ok))
  in
  List.iteri
    (fun d dom ->
      Alcotest.(check bool) (Printf.sprintf "domain %d agrees" d) true
        (Domain.join dom))
    domains

let suites =
  [
    ( "crc32",
      [
        (* First, so that running this suite alone makes the domains the
           first callers of the module. *)
        Alcotest.test_case "concurrent domains" `Quick test_concurrent_domains;
        Alcotest.test_case "known answers" `Quick test_known_answers;
        Alcotest.test_case "matches bytewise reference" `Quick
          test_matches_reference;
        Alcotest.test_case "chained updates" `Quick test_chained_updates;
        Alcotest.test_case "out of range" `Quick test_out_of_range;
        Alcotest.test_case "no allocation" `Quick test_no_allocation;
      ] );
  ]
