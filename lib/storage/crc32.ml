(* CRC-32 (IEEE 802.3, polynomial 0xEDB88320), slicing-by-16.

   [tables] holds sixteen 256-entry tables back to back.  Table 0 is the
   classic bytewise table; entry [x] of table [k] is the CRC register
   after byte [x] followed by [k] zero bytes.  One round of the word loop
   therefore folds 16 input bytes with 16 independent lookups, and gives
   the same bits as the bytewise loop.  The tables are built at module
   initialisation, not lazily: forcing a shared [Lazy.t] from two domains
   at once raises [Lazy.Undefined]. *)

let tables =
  let t = Array.make (16 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 15 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"

(* Entry [x land 0xFF] of table [k]. *)
let[@inline] t k x = Array.unsafe_get tables ((k lsl 8) lor (x land 0xFF))

(* Nothing here may allocate: every checksummed page passes through, on
   every write and every verifying read.  So no local closures, and the 64-bit words stay
   unboxed because each is consumed by [Int64] primitives only. *)
let update crc buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg "Crc32.update: range out of bounds";
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos in
  let stop = pos + len in
  (* The words are read in native order and split as little-endian; a
     big-endian host leaves every byte to the bytewise loop below. *)
  if not Sys.big_endian then
    while !i <= stop - 16 do
      let w0 = get64u buf !i and w1 = get64u buf (!i + 8) in
      let a = Int64.to_int w0 lxor !c
      and b = Int64.to_int (Int64.shift_right_logical w0 32)
      and d = Int64.to_int w1
      and e = Int64.to_int (Int64.shift_right_logical w1 32) in
      c :=
        t 15 a
        lxor t 14 (a lsr 8)
        lxor t 13 (a lsr 16)
        lxor t 12 (a lsr 24)
        lxor t 11 b
        lxor t 10 (b lsr 8)
        lxor t 9 (b lsr 16)
        lxor t 8 (b lsr 24)
        lxor t 7 d
        lxor t 6 (d lsr 8)
        lxor t 5 (d lsr 16)
        lxor t 4 (d lsr 24)
        lxor t 3 e
        lxor t 2 (e lsr 8)
        lxor t 1 (e lsr 16)
        lxor t 0 (e lsr 24);
      i := !i + 16
    done;
  while !i < stop do
    c := t 0 (!c lxor Char.code (Bytes.unsafe_get buf !i)) lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xFFFFFFFF

let digest ?(pos = 0) ?len buf =
  let len = match len with Some l -> l | None -> Bytes.length buf - pos in
  update 0 buf ~pos ~len

let string s = digest (Bytes.unsafe_of_string s)
