let m_fsyncs = Tdb_obs.Metric.counter "tdb_disk_fsyncs_total"

let m_checksum_failures =
  Tdb_obs.Metric.counter "tdb_disk_checksum_failures_total"

let m_verifies = Tdb_obs.Metric.counter "tdb_disk_page_verifies_total"

let m_recoveries = Tdb_obs.Metric.counter "tdb_recovery_runs_total"

let m_recovered_torn =
  Tdb_obs.Metric.counter "tdb_recovery_torn_pages_total"

let m_recovered_tail_bytes =
  Tdb_obs.Metric.counter "tdb_recovery_tail_bytes_total"

let m_recovered_overflows =
  Tdb_obs.Metric.counter "tdb_recovery_overflows_cleared_total"

(* One stored page image.  An image never changes once stored: every
   write, a torn one included, installs a new image.  [verified] lives
   with the bytes it vouches for, so the first read of an image checks
   its CRC and marks it, and no reader can mark an image it did not
   check.  The flag is only ever set to [true] after a passing check, so
   a racing second check is wasted work, never a wrong answer. *)
type image = { bytes : bytes; mutable verified : bool }

type mem_store = { mutable pages : image array; mutable used : int }

type file_store = {
  fd : Unix.file_descr;
  mutable npages : int;
  path : string;
}

type backend = Mem of mem_store | File of file_store

type recovery = {
  pages_scanned : int;
  tail_bytes_dropped : int;
  torn_pages_dropped : int;
  overflows_cleared : int;
  max_epoch : int;
}

let recovery_repaired r =
  r.tail_bytes_dropped > 0 || r.torn_pages_dropped > 0
  || r.overflows_cleared > 0

let pp_recovery ppf r =
  Fmt.pf ppf "scanned %d page(s)" r.pages_scanned;
  if r.tail_bytes_dropped > 0 then
    Fmt.pf ppf ", dropped %d unaligned trailing byte(s)" r.tail_bytes_dropped;
  if r.torn_pages_dropped > 0 then
    Fmt.pf ppf ", truncated %d torn page(s)" r.torn_pages_dropped;
  if r.overflows_cleared > 0 then
    Fmt.pf ppf ", cleared %d dangling overflow pointer(s)" r.overflows_cleared

type t = {
  backend : backend;
  fault : Fault.t option;
  mutable epoch : int;
  mutable recovery : recovery option;
  lock : Mutex.t;
      (* Serializes page-level operations.  Parallel scan partitions share
         one disk through private buffer pools; a File backend positions a
         shared fd with lseek before reading, the Mem backend grows its
         page array in place, and the fault plan steps its counters — all
         unsafe to interleave across domains. *)
}

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
      Mutex.unlock t.lock;
      v
  | exception e ->
      Mutex.unlock t.lock;
      raise e

let describe t =
  match t.backend with Mem _ -> "<mem>" | File f -> f.path

let epoch t = t.epoch
let bump_epoch t = t.epoch <- t.epoch + 1
let recovery_report t = t.recovery

let wrap_unix path f =
  try f ()
  with Unix.Unix_error (e, op, _) ->
    Tdb_error.io "%s: %s during %s" path (Unix.error_message e) op

(* Raw page I/O on a file descriptor: no fault injection, no checksum
   interpretation.  Used by the runtime paths (below a fault filter) and by
   recovery (which must see the bytes as they are). *)

let raw_read_exactly fd buf ~len =
  let rec go off =
    if off < len then begin
      let n = Unix.read fd buf off (len - off) in
      if n = 0 then
        Tdb_error.io "short read: got %d of %d bytes (truncated file?)" off len;
      go (off + n)
    end
  in
  go 0

let raw_write_exactly fd buf ~len =
  let rec go off =
    if off < len then go (off + Unix.write fd buf off (len - off))
  in
  go 0

let raw_read_page fd id buf =
  ignore (Unix.lseek fd (id * Page.size) Unix.SEEK_SET);
  raw_read_exactly fd buf ~len:Page.size

let raw_write_page fd id buf ~len =
  ignore (Unix.lseek fd (id * Page.size) Unix.SEEK_SET);
  raw_write_exactly fd buf ~len

(* --- fault-filtered primitives ------------------------------------- *)

let faulty_read t ~len =
  match t.fault with
  | None -> `Ok
  | Some f -> (
      match Fault.on_read f ~len with
      | `Ok -> `Ok
      | `Eio -> Tdb_error.io "%s: injected EIO on read" (describe t)
      | `Short n -> `Short n)

(* The image a read serves: the stored one itself on the mem backend,
   a fresh, unverified buffer on the file backend. *)
let fetch_image t id =
  match t.backend with
  | Mem m -> (
      match faulty_read t ~len:Page.size with
      | `Ok -> m.pages.(id)
      | `Short n ->
          Tdb_error.io "%s: short read: got %d of %d bytes" (describe t) n
            Page.size)
  | File f ->
      let buf = Bytes.create Page.size in
      wrap_unix f.path (fun () ->
          match faulty_read t ~len:Page.size with
          | `Ok -> raw_read_page f.fd id buf
          | `Short n ->
              (* deliver the prefix the kernel managed, then fail as a
                 real short read would *)
              ignore (Unix.lseek f.fd (id * Page.size) Unix.SEEK_SET);
              if n > 0 then raw_read_exactly f.fd buf ~len:n;
              Tdb_error.io "%s: short read: got %d of %d bytes" f.path n
                Page.size);
      { bytes = buf; verified = false }

(* Writes a sealed page image through the fault filter.  [write_prefix n]
   must persist the first [n] bytes of the image. *)
let faulty_write t ~write_prefix sealed =
  let len = Bytes.length sealed in
  match t.fault with
  | None -> write_prefix len
  | Some f -> (
      match Fault.on_write f ~len with
      | `Ok -> write_prefix len
      | `Eio -> Tdb_error.io "%s: injected EIO on write" (describe t)
      | `Torn n -> write_prefix n
      | `Crash n ->
          write_prefix n;
          raise Fault.Crashed
      | `Crash_after ->
          write_prefix len;
          raise Fault.Crashed)

let create_mem ?fault () =
  {
    backend = Mem { pages = [||]; used = 0 };
    fault;
    epoch = 0;
    recovery = None;
    lock = Mutex.create ();
  }

let npages t =
  match t.backend with Mem m -> m.used | File f -> f.npages

let check_id t id =
  if id < 0 || id >= npages t then
    invalid_arg (Printf.sprintf "Disk: page id %d out of range (npages=%d)" id
                   (npages t))

let seal_copy t page =
  let sealed = Bytes.copy page in
  Page.seal ~epoch:t.epoch sealed;
  sealed

let mem_store m id sealed n =
  (* A torn write leaves the old bytes beyond the torn prefix.  It builds
     a new image rather than blitting into the stored one: readers may
     hold that image, and it may already be marked verified. *)
  let bytes =
    if n = Bytes.length sealed then sealed
    else begin
      let torn = Bytes.copy m.pages.(id).bytes in
      Bytes.blit sealed 0 torn 0 n;
      torn
    end
  in
  m.pages.(id) <- { bytes; verified = false }

let allocate t =
  locked t @@ fun () ->
  match t.backend with
  | Mem m ->
      if m.used >= Array.length m.pages then begin
        let cap = max 8 (2 * Array.length m.pages) in
        let pages = Array.make cap { bytes = Bytes.empty; verified = false } in
        Array.blit m.pages 0 pages 0 m.used;
        m.pages <- pages
      end;
      let id = m.used in
      m.pages.(id) <- { bytes = Page.create (); verified = false };
      m.used <- id + 1;
      let sealed = seal_copy t (Page.create ()) in
      faulty_write t sealed ~write_prefix:(fun n -> mem_store m id sealed n);
      id
  | File f ->
      let id = f.npages in
      let sealed = seal_copy t (Page.create ()) in
      wrap_unix f.path (fun () ->
          faulty_write t sealed ~write_prefix:(fun n ->
              if n > 0 then raw_write_page f.fd id sealed ~len:n));
      f.npages <- id + 1;
      id

let read_image t id =
  (* Fetch under the lock (shared fd position / page array / fault
     counters), but verify the checksum outside it: the CRC over a full
     page is the expensive part of a read, and hoisting it lets
     concurrent snapshot readers overlap their checksum work instead of
     convoying on the disk mutex.  A stored mem image is checked once;
     a file read is a fresh buffer, checked every time. *)
  let img =
    locked t @@ fun () ->
    check_id t id;
    fetch_image t id
  in
  if not img.verified then begin
    Tdb_obs.Metric.incr m_verifies;
    if not (Page.check img.bytes) then begin
      Tdb_obs.Metric.incr m_checksum_failures;
      Tdb_obs.Trace.event "checksum_failure"
        ~attrs:[ ("file", describe t); ("page", string_of_int id) ];
      Tdb_error.corruption
        "%s: page %d failed its checksum (stored epoch %d)" (describe t) id
        (Page.get_epoch img.bytes)
    end;
    img.verified <- true
  end;
  img.bytes

let read_page t id = Bytes.copy (read_image t id)

let write_page t id page =
  locked t @@ fun () ->
  check_id t id;
  if Bytes.length page <> Page.size then
    invalid_arg "Disk.write_page: wrong page size";
  let sealed = seal_copy t page in
  match t.backend with
  | Mem m ->
      faulty_write t sealed ~write_prefix:(fun n -> mem_store m id sealed n)
  | File f ->
      wrap_unix f.path (fun () ->
          faulty_write t sealed ~write_prefix:(fun n ->
              if n > 0 then raw_write_page f.fd id sealed ~len:n))

let truncate t =
  locked t @@ fun () ->
  match t.backend with
  | Mem m ->
      m.pages <- [||];
      m.used <- 0
  | File f ->
      wrap_unix f.path (fun () -> Unix.ftruncate f.fd 0);
      f.npages <- 0

let fsync t =
  match t.backend with
  | Mem _ -> ()
  | File f ->
      Tdb_obs.Metric.incr m_fsyncs;
      wrap_unix f.path (fun () -> Unix.fsync f.fd)

let close t =
  match t.backend with Mem _ -> () | File f -> Unix.close f.fd

let is_file_backed t =
  match t.backend with Mem _ -> false | File _ -> true

(* --- recovery ------------------------------------------------------- *)

let run_recovery t ~tail_bytes =
  match t.backend with
  | Mem _ -> ()
  | File f ->
      wrap_unix f.path (fun () ->
          if tail_bytes > 0 then Unix.ftruncate f.fd (f.npages * Page.size);
          let n = f.npages in
          let buf = Bytes.create Page.size in
          let overflow = Array.make (max n 1) None in
          let max_epoch = ref 0 in
          let bad = ref [] in
          for id = 0 to n - 1 do
            raw_read_page f.fd id buf;
            if Page.check buf then begin
              max_epoch := max !max_epoch (Page.get_epoch buf);
              overflow.(id) <- Page.get_overflow buf
            end
            else bad := id :: !bad
          done;
          let torn =
            match List.rev !bad with
            | [] -> 0
            | first_bad :: _ ->
                (* Only a contiguous tail of bad pages is explainable as a
                   torn append; a bad page with intact pages after it is
                   damage we cannot undo without a log. *)
                if List.length !bad = n - first_bad then begin
                  Unix.ftruncate f.fd (first_bad * Page.size);
                  f.npages <- first_bad;
                  n - first_bad
                end
                else
                  Tdb_error.corruption
                    "%s: page %d failed its checksum but later pages are \
                     intact; not a torn tail, refusing to repair"
                    f.path first_bad
          in
          let cleared = ref 0 in
          for id = 0 to f.npages - 1 do
            match overflow.(id) with
            | Some next when next >= f.npages ->
                raw_read_page f.fd id buf;
                Page.set_overflow buf None;
                Page.seal ~epoch:(Page.get_epoch buf) buf;
                raw_write_page f.fd id buf ~len:Page.size;
                incr cleared
            | _ -> ()
          done;
          if tail_bytes > 0 || torn > 0 || !cleared > 0 then Unix.fsync f.fd;
          t.epoch <- !max_epoch + 1;
          Tdb_obs.Metric.incr m_recoveries;
          Tdb_obs.Metric.add m_recovered_torn torn;
          Tdb_obs.Metric.add m_recovered_tail_bytes tail_bytes;
          Tdb_obs.Metric.add m_recovered_overflows !cleared;
          if tail_bytes > 0 || torn > 0 || !cleared > 0 then
            Tdb_obs.Trace.event "recovery_repair"
              ~attrs:
                [
                  ("file", f.path);
                  ("tail_bytes", string_of_int tail_bytes);
                  ("torn_pages", string_of_int torn);
                  ("overflows_cleared", string_of_int !cleared);
                ];
          t.recovery <-
            Some
              {
                pages_scanned = n;
                tail_bytes_dropped = tail_bytes;
                torn_pages_dropped = torn;
                overflows_cleared = !cleared;
                max_epoch = !max_epoch;
              })

let open_file ?fault ?(recover = false) path =
  let fd =
    try
      Unix.openfile path
        [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ]
        0o644
    with Unix.Unix_error (e, op, _) ->
      Tdb_error.io "%s: %s during %s" path (Unix.error_message e) op
  in
  let len = (Unix.fstat fd).Unix.st_size in
  let tail = len mod Page.size in
  if tail <> 0 && not recover then begin
    Unix.close fd;
    Tdb_error.corruption
      "%s: size %d is not page-aligned (%d trailing bytes); reopen with \
       recovery to truncate the torn tail"
      path len tail
  end;
  let t =
    {
      backend = File { fd; npages = len / Page.size; path };
      fault;
      epoch = 0;
      recovery = None;
      lock = Mutex.create ();
    }
  in
  if recover then run_recovery t ~tail_bytes:tail;
  t
