(** Page stores.

    Each relation lives in its own disk of {!Page.size}-byte pages addressed
    by dense integer ids.  Two backends: an in-memory store (used by the
    benchmark: the paper's metric is page {e accesses}, which the buffer
    pool counts identically for either backend) and a real file.

    Every write {e seals} the outgoing page image — stamps the disk's
    current epoch and a CRC-32 into the page trailer — and no read serves
    bytes whose checksum has not been verified: a torn or bit-flipped
    page raises {!Tdb_error.Error} with class [Corruption] instead.  The
    file backend verifies every physical read.  The memory backend keeps
    one immutable image per stored page (every write, torn or not,
    installs a new one) and verifies each image at its first read only,
    since an image that cannot change cannot go bad between reads.  Both
    backends accept an optional {!Fault} plan that deterministically
    injects short reads, EIO, torn writes, and crashes. *)

type t

type recovery = {
  pages_scanned : int;
  tail_bytes_dropped : int;  (** unaligned trailing bytes truncated *)
  torn_pages_dropped : int;  (** checksum-failing tail pages truncated *)
  overflows_cleared : int;
      (** overflow pointers into the truncated region reset to none *)
  max_epoch : int;  (** newest epoch stamp seen on an intact page *)
}
(** What a recovery pass found and repaired. *)

val recovery_repaired : recovery -> bool
(** Whether the pass changed anything (false = the file was clean). *)

val pp_recovery : Format.formatter -> recovery -> unit

val create_mem : ?fault:Fault.t -> unit -> t

val open_file : ?fault:Fault.t -> ?recover:bool -> string -> t
(** Opens (or creates) a page file on disk with [O_CLOEXEC].

    Without [~recover] (the default), a file whose size is not a multiple
    of {!Page.size} raises {!Tdb_error.Error} with class [Corruption].
    With [~recover:true] the opener runs a recovery pass instead: the
    unaligned tail is truncated, every page's checksum is validated, a
    contiguous tail of torn pages is truncated, and overflow pointers left
    dangling by the truncation are cleared; the findings are available via
    {!recovery_report}.  A checksum failure that is {e not} a torn tail
    (an intact page follows it) still raises [Corruption]: that damage
    cannot be undone without a log.

    Raises {!Tdb_error.Error} with class [Io] if the file cannot be
    opened. *)

val recovery_report : t -> recovery option
(** The report of the recovery pass run at open, if one ran. *)

val npages : t -> int

val epoch : t -> int
(** The epoch stamped into pages on write.  After a recovery pass it is
    one past the newest epoch found in the file. *)

val bump_epoch : t -> unit
(** Checkpoint boundary: subsequent writes carry the next epoch. *)

val allocate : t -> int
(** Extends the store by one zeroed (sealed) page and returns its id. *)

val read_image : t -> int -> bytes
(** The page's verified image.  On the memory backend this is the stored
    image itself, shared with every other reader of the page: never
    mutate it.  Its checksum is verified at its first read (counted by
    [tdb_disk_page_verifies_total]) and not again.  On the file backend
    it is a private buffer, read and verified on every call.  Raises
    [Invalid_argument] on a bad id, {!Tdb_error.Error} ([Corruption]) on
    a checksum mismatch, and {!Tdb_error.Error} ([Io]) on short reads or
    I/O failure. *)

val read_page : t -> int -> bytes
(** A fresh copy of {!read_image}: the caller may mutate it.  Raises
    like {!read_image}. *)

val write_page : t -> int -> bytes -> unit
(** Seals a copy of the page image (the caller's buffer is not modified)
    and writes it.  Raises like {!read_page}; under an active fault plan
    it may also raise {!Fault.Crashed}. *)

val truncate : t -> unit
(** Drops every page (used by [modify], which rebuilds a relation). *)

val fsync : t -> unit
(** Forces written pages to stable storage (no-op for the mem backend). *)

val close : t -> unit
val is_file_backed : t -> bool

val describe : t -> string
(** The backing path, or ["<mem>"]. *)
