exception Crashed

let m_injected kind =
  Tdb_obs.Metric.counter ~labels:[ ("kind", kind) ] "tdb_fault_injections_total"

let inject kind =
  Tdb_obs.Metric.incr (m_injected kind);
  Tdb_obs.Trace.event "fault_injected" ~attrs:[ ("kind", kind) ]

type t = {
  seed : int;
  mutable reads : int;
  mutable writes : int;
  mutable dead : bool;
  crash_after_write : int option;
  crash_at_write : int option;
  torn_write_at : int option;
  eio_write_at : int option;
  eio_read_at : int option;
  short_read_at : int option;
}

let create ?(seed = 0) ?crash_after_write ?crash_at_write ?torn_write_at
    ?eio_write_at ?eio_read_at ?short_read_at () =
  let positive name = function
    | Some n when n < 1 ->
        invalid_arg (Printf.sprintf "Fault.create: %s must be >= 1" name)
    | v -> v
  in
  {
    seed;
    reads = 0;
    writes = 0;
    dead = false;
    crash_after_write = positive "crash_after_write" crash_after_write;
    crash_at_write = positive "crash_at_write" crash_at_write;
    torn_write_at = positive "torn_write_at" torn_write_at;
    eio_write_at = positive "eio_write_at" eio_write_at;
    eio_read_at = positive "eio_read_at" eio_read_at;
    short_read_at = positive "short_read_at" short_read_at;
  }

let reads t = t.reads
let writes t = t.writes
let is_dead t = t.dead

let check_alive t = if t.dead then raise Crashed

(* splitmix64-style finalizer: a deterministic value from (seed, counter),
   independent of any global Random state. *)
let mix t n =
  let z = ref (t.seed * 0x9E3779B9 + (n * 0xBF58476D) + 0x94D049BB) in
  z := !z lxor (!z lsr 30);
  z := !z * 0xBF58476D;
  z := !z lxor (!z lsr 27);
  z := !z * 0x94D049BB;
  z := !z lxor (!z lsr 31);
  !z land max_int

(* How many bytes of a torn write reach the disk: at least 1 and at most
   len - 1, so a tear is never a no-op and never a complete write. *)
let torn_bytes t n ~len =
  if len <= 1 then 0 else 1 + (mix t n mod (len - 1))

let on_read t ~len =
  check_alive t;
  t.reads <- t.reads + 1;
  if t.eio_read_at = Some t.reads then begin
    inject "eio_read";
    `Eio
  end
  else if t.short_read_at = Some t.reads then begin
    inject "short_read";
    `Short (mix t t.reads mod len)
  end
  else `Ok

let on_write t ~len =
  check_alive t;
  t.writes <- t.writes + 1;
  if t.crash_at_write = Some t.writes then begin
    t.dead <- true;
    inject "crash_at_write";
    `Crash (torn_bytes t t.writes ~len)
  end
  else if t.crash_after_write = Some t.writes then begin
    t.dead <- true;
    inject "crash_after_write";
    `Crash_after
  end
  else if t.torn_write_at = Some t.writes then begin
    inject "torn_write";
    `Torn (torn_bytes t t.writes ~len)
  end
  else if t.eio_write_at = Some t.writes then begin
    inject "eio_write";
    `Eio
  end
  else `Ok
