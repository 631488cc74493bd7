(** Deterministic fault injection for the disk layer.

    A fault plan is attached to a {!Disk.t} and consulted on every page
    read and write.  All decisions — which operation fails, how many bytes
    of a torn write reach the platter — derive from the seed and the
    operation counters, so a given (plan, workload) pair always fails the
    same way: a failing crash-consistency run can be replayed exactly.

    Fault kinds:
    - short reads and injected EIO surface as {!Tdb_error.Io};
    - torn writes persist a deterministic prefix of the page and succeed
      silently — detection is the page checksum's job;
    - [crash_at_write n] tears the [n]-th write and then kills the plan;
    - [crash_after_write n] completes the [n]-th write and then kills the
      plan (page-atomic crash: the model used by the crash-at-every-write
      consistency harness).

    Once dead, every subsequent operation raises {!Crashed}, simulating a
    process that no longer exists; the test harness catches it and reopens
    the files with recovery. *)

exception Crashed

type t

val create :
  ?seed:int ->
  ?crash_after_write:int ->
  ?crash_at_write:int ->
  ?torn_write_at:int ->
  ?eio_write_at:int ->
  ?eio_read_at:int ->
  ?short_read_at:int ->
  unit ->
  t
(** All positions are 1-based operation counts; [Invalid_argument] if < 1.
    A plan with no positions set is a pure operation counter (used to
    measure a workload's write count before replaying it under crashes). *)

val reads : t -> int
val writes : t -> int

val is_dead : t -> bool

val on_read : t -> len:int -> [ `Ok | `Eio | `Short of int ]
(** Consulted before a read of [len] bytes.  [`Short n] means only [n]
    bytes (0 <= n < len) are available.  Raises {!Crashed} if dead. *)

val on_write : t -> len:int -> [ `Ok | `Eio | `Torn of int | `Crash of int | `Crash_after ]
(** Consulted before a write of [len] bytes.  [`Torn n] / [`Crash n] mean
    only the first [n] bytes (1 <= n < len) reach the disk; [`Crash n]
    and [`Crash_after] additionally kill the plan — the caller must raise
    {!Crashed} after persisting the prescribed bytes.  Raises {!Crashed}
    if already dead. *)
