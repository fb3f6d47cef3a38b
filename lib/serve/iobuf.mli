(** Offset-carrying byte buffers for the network front door.

    One [Iobuf.t] is a growable byte array with a window of live bytes
    and a scan watermark.  It exists to kill the two quadratic string
    rebuilds the first front door shipped with:

    - input: [pend <- pend ^ chunk] re-copied every already-buffered
      byte on every read, and frame extraction re-scanned them all for
      the header newline — a large frame arriving in 64 KiB reads cost
      O(frames²).  Here {!read_from} reads straight into the buffer's
      tail, {!consume} advances an offset without moving a byte, and
      {!find_newline} remembers how far it has scanned so no byte is
      ever examined twice.
    - output: [out <- unsent_tail ^ fresh] re-copied the unsent tail on
      every partial write.  Here {!write_to} advances the same offset
      and {!add_string} appends encoded frames in place.

    Buffers compact (blit live bytes to the front) only when a reserve
    would otherwise grow the array, and shrink back to a bounded
    capacity once drained, so one giant frame does not pin its peak
    footprint for the life of the connection.  Not thread-safe. *)

type t

val create : int -> t
(** [create cap] — an empty buffer with [cap] bytes pre-allocated. *)

val of_string : string -> t
(** A buffer holding exactly [s]. *)

val length : t -> int
(** Live (unconsumed) bytes. *)

val is_empty : t -> bool

val capacity : t -> int
(** Allocated bytes — what the shrink policy bounds. *)

val contents : t -> string
(** Copy of the live bytes (tests only). *)

val sub : t -> pos:int -> len:int -> string
(** [sub t ~pos ~len] — a copy of live bytes [pos..pos+len-1], [pos]
    relative to the first live byte.
    @raise Invalid_argument when the range leaves the live window. *)

val add_string : t -> string -> unit

val consume : t -> int -> unit
(** Drop [n] bytes off the front (offset arithmetic, no copying).  A
    drained buffer resets its offsets and, past a capacity bound,
    shrinks its storage.
    @raise Invalid_argument when [n] exceeds {!length}. *)

val clear : t -> unit

val find_newline : t -> int option
(** Position of the first ['\n'] among the live bytes, relative to the
    first live byte — or [None].  Scanning resumes from the previous
    call's watermark, so repeated calls over a growing buffer examine
    each byte exactly once. *)

val read_from : ?chunk:int -> t -> Unix.file_descr -> int
(** Read up to [chunk] (default 64 KiB) bytes from [fd] directly into
    the buffer's tail and return the count ([0] = EOF).  Raises
    whatever [Unix.read] raises — [EAGAIN]/[EINTR] handling is the
    caller's. *)

val write_to : ?max:int -> t -> Unix.file_descr -> int
(** Write the live bytes (at most [max], if given — the short-write
    injection seam) to [fd], consume what was accepted, and return the
    count.  Raises whatever [Unix.write] raises. *)
