let size = 1024

(* Trailer layout, from the end of the page backwards:
     [size-12 .. size-9]  overflow page id + 1 (0 = none)
     [size-8  .. size-5]  write epoch (checkpoint generation of the writer)
     [size-4  .. size-1]  CRC-32 of bytes [0, size-4)  *)
let checksum_bytes = 4
let epoch_bytes = 4
let overflow_bytes = 4
let trailer = overflow_bytes + epoch_bytes + checksum_bytes
let overflow_offset = size - trailer
let epoch_offset = size - checksum_bytes - epoch_bytes
let checksum_offset = size - checksum_bytes
let slot_header = 2

let capacity ~record_size =
  let c = (size - trailer) / (record_size + slot_header) in
  if c < 1 then
    invalid_arg
      (Printf.sprintf "Page.capacity: record of %d bytes does not fit a page"
         record_size)
  else c

let create () = Bytes.make size '\000'

let get_overflow page =
  match Int32.to_int (Bytes.get_int32_be page overflow_offset) with
  | 0 -> None
  | n -> Some (n - 1)

let set_overflow page next =
  let stored = match next with None -> 0 | Some id -> id + 1 in
  Bytes.set_int32_be page overflow_offset (Int32.of_int stored)

let get_epoch page =
  Int32.to_int (Bytes.get_int32_be page epoch_offset) land 0xFFFFFFFF

let stored_checksum page =
  Int32.to_int (Bytes.get_int32_be page checksum_offset) land 0xFFFFFFFF

let seal ~epoch page =
  Bytes.set_int32_be page epoch_offset (Int32.of_int epoch);
  Bytes.set_int32_be page checksum_offset
    (Int32.of_int (Crc32.digest page ~pos:0 ~len:checksum_offset))

let check page =
  Bytes.length page = size
  && stored_checksum page = Crc32.digest page ~pos:0 ~len:checksum_offset

let slot_offset ~record_size slot = slot * (record_size + slot_header)

(* [slot < capacity ~record_size] without the division: slot reads sit
   on the per-record path of every scan. *)
let check_slot ~record_size slot =
  if slot < 0 || (slot + 1) * (record_size + slot_header) > size - trailer
  then
    invalid_arg (Printf.sprintf "Page: slot %d out of range" slot)

let slot_used ~record_size page slot =
  check_slot ~record_size slot;
  Bytes.get_uint16_be page (slot_offset ~record_size slot) <> 0

let check_used ~record_size page slot =
  if not (slot_used ~record_size page slot) then
    invalid_arg (Printf.sprintf "Page: slot %d is free" slot)

let read_record ~record_size page slot =
  check_used ~record_size page slot;
  Bytes.sub page (slot_offset ~record_size slot + slot_header) record_size

let blit_record ~record_size page slot dst =
  check_used ~record_size page slot;
  Bytes.blit page (slot_offset ~record_size slot + slot_header) dst 0
    record_size

let write_record ~record_size page slot record =
  check_slot ~record_size slot;
  if Bytes.length record <> record_size then
    invalid_arg "Page.write_record: record size mismatch";
  let off = slot_offset ~record_size slot in
  Bytes.set_uint16_be page off 1;
  Bytes.blit record 0 page (off + slot_header) record_size

let clear_slot ~record_size page slot =
  check_slot ~record_size slot;
  Bytes.set_uint16_be page (slot_offset ~record_size slot) 0

let find_free_slot ~record_size page =
  let cap = capacity ~record_size in
  let rec go slot =
    if slot >= cap then None
    else if not (slot_used ~record_size page slot) then Some slot
    else go (slot + 1)
  in
  go 0

let used_count ~record_size page =
  let cap = capacity ~record_size in
  let n = ref 0 in
  for slot = 0 to cap - 1 do
    if slot_used ~record_size page slot then incr n
  done;
  !n
