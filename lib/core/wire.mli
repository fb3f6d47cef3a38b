(** Shared on-disk wire primitives for every durable artifact —
    checkpoint snapshots ({!Legodb_search.Checkpoint}), storage
    snapshots and the query server's write-ahead log
    ({!Legodb_serve.Wal}).

    The format family is the one PR 4's checkpoint codec introduced:
    everything is data (no [Marshal], no closures), newline-terminated
    tokens for tags and numbers, length-prefixed strings that may
    contain anything, floats as [%h] hex literals so they round-trip
    bit-exactly, and a whole-payload CRC-32 checked {e before} any
    decoding begins.  This module is that codec's substrate, extracted
    so the checkpoint, the storage snapshot, and the WAL share one
    implementation of the primitives and of the header framing.

    {2 Durability}

    {!write_atomic} is the hardened atomic file write every snapshot
    goes through: payload to a temp file, [fsync] the temp file {e
    before} the rename (so the rename never publishes a name whose
    bytes are still in the page cache), rename over the destination,
    then [fsync] the parent directory (so the rename itself survives
    power loss, not just process death).

    All file I/O goes through an injectable {!fs} record — the
    fault-injection seam the crash–recover tests drive with short
    writes, failing fsyncs, and crash points, mirroring the
    [?inject] hook of {!Legodb_search.Cost_engine}. *)

exception Corrupt of string
(** An image failed validation: bad magic, unsupported version,
    truncation, checksum mismatch, or a malformed payload.  The message
    is one line naming the defect.  Consumers wrap it in their own
    exception ({!Legodb_search.Checkpoint.Corrupt} → exit 7,
    {!Legodb_serve.Wal.Corrupt} → exit 8). *)

val corrupt : ('a, unit, string, 'b) format4 -> 'a
(** [corrupt fmt ...] raises {!Corrupt} with the formatted message. *)

val crc32 : string -> int32
(** CRC-32 (IEEE 802.3) of a string, slicing-by-8: eight 256-entry
    tables fold eight bytes per step (two little-endian 32-bit reads),
    the tail a byte at a time — the values of the classic byte-at-a-time
    table loop, several times faster on the snapshots, WAL groups and
    network frames every durable or framed byte goes through. *)

(** {1 Payload writers}

    Tokens (tags, ints, floats) are newline-terminated; strings are
    length-prefixed so they may contain anything, newlines included. *)

val w_line : Buffer.t -> string -> unit
val w_int : Buffer.t -> int -> unit
(** [string_of_int n] and a newline, its digits written straight into
    the buffer. *)

val w_float : Buffer.t -> float -> unit
(** Written as a [%h] hex literal: reading it back yields the identical
    bit pattern. *)

val w_str : Buffer.t -> string -> unit
val w_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
val w_opt : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a option -> unit

(** {1 Payload readers}

    All readers raise {!Corrupt} on malformed input; none read past the
    cursor's buffer. *)

type cursor = { buf : string; mutable pos : int }

val cursor : string -> cursor
val at_end : cursor -> bool
val r_line : cursor -> string
val r_int : cursor -> int
val r_float : cursor -> float
val r_str : cursor -> string
val r_list : cursor -> (cursor -> 'a) -> 'a list
val r_opt : cursor -> (cursor -> 'a) -> 'a option

(** {1 Header tokens}

    The one definition of a header's length and checksum tokens.  Every
    framed format uses these — {!frame}/{!unframe} here, the network
    frames of {!Legodb_serve.Net}, the records of {!Legodb_serve.Wal} —
    so a damaged header is judged the same way everywhere. *)

val len_of_token : string -> int option
(** The payload length a header token declares: [Some n] only when the
    token is the canonical decimal rendering of [n >= 0].
    [int_of_string] would also read ["+5"], ["05"], ["0x5"] and ["5_"];
    accepting those would let a damaged header alias an undamaged
    one. *)

val len_at : (int -> char) -> pos:int -> len:int -> int option
(** {!len_of_token} of the [len] characters [get pos], ...,
    [get (pos + len - 1)], read in place: the network framer judges
    tokens inside its input buffer without copying them out. *)

val checksum_error : string -> string -> string option
(** [checksum_error token payload] compares [token] {e as text} with
    the payload's checksum token — its {!crc32} as canonical lowercase
    [%08lx], exactly 8 hex digits — so uppercase, short,
    long, or [0x]-, [+]- or space-prefixed spellings of the right value
    are rejected too — and returns the one-line diagnosis of a
    mismatch, or [None].  The token is judged in place against the
    computed CRC; only a mismatch formats anything. *)

val checksum_error_at :
  (int -> char) -> pos:int -> len:int -> string -> string option
(** {!checksum_error} of the token held by the [len] characters
    [get pos], ..., [get (pos + len - 1)], read in place. *)

val header_line : string -> string -> string
(** [header_line lead payload] — the header line
    ["<lead> <checksum-token> <payload-bytes>\n"] that precedes
    [payload]; [lead] is the format's leading tokens (magic and version
    for {!frame}, a record tag for the WAL).  Written straight into one
    string: the bytes [Printf.sprintf "%s %s %d\n"] would give. *)

(** {1 Image framing}

    A framed image is one header line

    {v <magic> <version> <crc32-hex> <payload-bytes> v}

    followed by exactly [<payload-bytes>] of payload. *)

val frame : magic:string -> version:int -> string -> string
(** [frame ~magic ~version payload] — the full file image, header and
    payload written into one string. *)

val unframe : magic:string -> version:int -> kind:string -> string -> string
(** Validate a header (magic, version, length, CRC) and return the
    payload.  [kind] names the artifact in error messages ("checkpoint",
    "storage snapshot", "WAL"), so truncated / bit-flipped /
    wrong-version / wrong-magic images are each reported distinctly.
    @raise Corrupt *)

(** {1 File I/O with an injectable fault seam} *)

type fs = {
  write : Unix.file_descr -> string -> unit;
      (** write the whole string (or raise) *)
  fsync : Unix.file_descr -> unit;
  rename : string -> string -> unit;
}
(** The three primitives every durable write decomposes into.  Tests
    substitute implementations that write short, fail fsync, or raise a
    crash exception after the k-th operation; production code uses
    {!real_fs}. *)

val real_fs : fs

val write_atomic : ?fs:fs -> path:string -> string -> unit
(** Durable atomic replace of [path]: write to [path ^ ".tmp"], fsync
    it, rename over [path], fsync the parent directory.  A crash at any
    point leaves either the old file or the new one, never a mix, and a
    completed call survives power loss.  @raise Sys_error / [Unix_error]
    on I/O failure. *)

val read_file : string -> string
(** The whole file as a string.  @raise Sys_error *)
