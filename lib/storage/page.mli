(** The physical page format.

    Pages are {!size} (1024) bytes, matching the prototype.  The last
    {!trailer} (12) bytes are, in order: the page id of the next overflow
    page in the chain (4 bytes; 0 for none, stored ids offset by one), the
    write epoch (4 bytes), and a CRC-32 over everything before the
    checksum field (4 bytes).  The rest of the page is an array of
    fixed-size record slots, each prefixed by a 2-byte slot header (0 =
    free, 1 = used), giving a capacity of
    [(1024 - 12) / (record_size + 2)] records per page:

    - 9 static tuples of 108 bytes,
    - 8 rollback/historical tuples of 116 bytes,
    - 8 temporal tuples of 124 bytes,
    - 168 ISAM directory entries for 4-byte keys,
    - 101 secondary-index entries of 8 bytes (exactly the paper's count),

    in line with the paper's figures.

    The epoch and checksum are storage-layer fields: {!Disk} stamps them
    via {!seal} on every write and verifies them via {!check} before it
    serves an image — at every physical read of a file, and at the first
    read of each stored in-memory image, which never changes afterwards —
    so code above the disk never sees a torn or bit-flipped page.
    Overflow pointers remain the access methods' business. *)

val size : int
val trailer : int

val capacity : record_size:int -> int
(** Records per page.  Raises [Invalid_argument] if even one record does not
    fit. *)

val create : unit -> bytes
(** A zeroed page: all slots free, no overflow successor, unsealed. *)

val get_overflow : bytes -> int option
val set_overflow : bytes -> int option -> unit

val get_epoch : bytes -> int
(** The epoch stamped by the last {!seal} (0 on an unsealed page). *)

val seal : epoch:int -> bytes -> unit
(** Stamps the epoch and recomputes the trailing CRC-32 in place.  Must be
    the last mutation before the page goes to stable storage. *)

val check : bytes -> bool
(** Whether the stored checksum matches the page contents.  False for a
    torn, bit-flipped, or never-sealed page. *)

val slot_used : record_size:int -> bytes -> int -> bool
val read_record : record_size:int -> bytes -> int -> bytes
(** [read_record ~record_size page slot] copies the record out of the page.
    The slot must be in use. *)

val blit_record : record_size:int -> bytes -> int -> bytes -> unit
(** [blit_record ~record_size page slot dst] copies the record into the
    first [record_size] bytes of [dst], allocating nothing.  The slot must
    be in use. *)

val write_record : record_size:int -> bytes -> int -> bytes -> unit
(** Stores a record and marks the slot used. *)

val clear_slot : record_size:int -> bytes -> int -> unit

val find_free_slot : record_size:int -> bytes -> int option
val used_count : record_size:int -> bytes -> int
