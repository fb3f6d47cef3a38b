(** The query server's durability substrate: a write-ahead log of
    appends, storage snapshots, segment files and the manifest that
    names them, in the shared {!Legodb_wire.Wire} format (the
    checkpoint codec's primitives).

    {2 On-disk layout}

    A server's data directory holds:

    - [snapshot.legodb] — a framed image ([LEGODB-SNAP] header with
      version, CRC-32, and payload length) of a whole published store:
      the p-schema the mapping derives from, the sequence number of the
      last append it covers, and every table's rows
      ({!Legodb_relational.Storage.write_rows}).  Written atomically
      and durably at {!Serve.create}, and again only when a publish's
      merge reaches the segments it holds (a compaction), so the file
      is always a complete, checksummed image of some published state.
    - [segment-<first>-<last>.legodb] — a framed [LEGODB-SEG] image of
      one sealed segment: the rows of appends [first] to [last], in
      {!Legodb_relational.Storage.write_rows}'s format.  Each publish
      writes one, holding what it sealed.
    - [manifest.legodb] — a framed [LEGODB-MANIFEST] image naming the
      segments that follow the snapshot, in order, and the last append
      the snapshot and segments cover.  Replaced atomically by every
      publish after its segment is on disk; absent until the first
      publish (and in a directory written before segments existed).
    - [wal.legodb] — a header line [LEGODB-WAL 1] followed by one
      {e commit unit} per {!flush}: a single append commits as a
      [R <crc32> <len>] record (the record's sequence number and the
      shredded rows per table, inside the checksum), and a {e group}
      of [k >= 2] staged appends commits as one [G <crc32> <len>]
      record whose payload carries the first sequence number, the
      member count, and every member's rows under a single CRC.
      Either way a commit unit is written with one [write] and one
      [fsync] before any of its appends is acknowledged — group
      commit amortizes the device's sync latency over the whole
      group.  The log is truncated back to its header after each
      publish's manifest is durable.

    Every image is streamed in bounded chunks
    ({!Legodb_wire.Wire.write_frame_atomic}), never built as one
    string.

    {2 Failure semantics}

    Sequence numbers tie the files together: the state is the
    snapshot, then the manifest's segments, then the log records past
    the last append they cover.  Replay applies exactly the records
    newer than the published files, so a crash {e between} the
    manifest's rename and the log truncation (when the log still holds
    already-published records) never double-applies, and a crash
    before the rename leaves the old manifest and every record in the
    log (the unnamed segment file is removed at recovery).  A crash
    between a compaction's snapshot and its manifest leaves segments
    the snapshot already covers, which recovery skips.

    A commit unit that simply stops early — torn header line, payload
    shorter than its declared length, missing terminator — is the
    signature of a crash mid-write: {!replay_string} drops it (and
    everything after it, though by construction a torn unit is the
    tail) and reports the truncation, because none of the appends it
    carried was ever acknowledged.  A group commits or truncates {e as
    a unit}: its members share one record and one checksum, so a crash
    mid-group can never surface a prefix of the group as if it had
    committed — exactly the ack invariant, every acked append survives
    and every unacked one is cleanly absent.  Everything else — bad
    magic, wrong version, a checksum mismatch on a structurally
    complete record, non-contiguous sequence numbers — is real
    corruption: {!Corrupt} is raised, the CLI maps it to exit code 8,
    and recovery refuses to serve rather than guess. *)

open Legodb_xtype
open Legodb_relational

exception Corrupt of string
(** The snapshot or WAL is not usable: truncated (where truncation is
    not a legal crash artifact), bit-flipped (checksum mismatch), wrong
    version, or wrong magic — each reported distinctly, one line.  The
    CLI maps this to exit code 8 (the checkpoint's exit-7 convention,
    one code later). *)

val snapshot_file : string -> string
(** [snapshot_file dir] — the snapshot's path under a data directory. *)

val wal_file : string -> string
(** [wal_file dir] — the log's path under a data directory. *)

(** {1 Records} *)

type record = {
  seq : int;  (** 1-based, contiguous, monotone across publishes *)
  rows : (string * Storage.row list) list;
      (** the shredded rows one append added, per table (tables the
          append left untouched are absent), in insertion order *)
}

val encode_record : record -> string
(** The record's full on-disk bytes: header line + checksummed
    payload + terminator. *)

val encode_group : record list -> string
(** The on-disk bytes of one commit unit: a singleton encodes as a
    plain [R] record (byte-identical to the fsync-per-append format),
    two or more as one [G] record under a single CRC.  Sequence
    numbers must be contiguous.
    @raise Invalid_argument on an empty or non-contiguous group. *)

val record_equal : record -> record -> bool
(** Structural equality, value bit-patterns included (the codec
    round-trip property). *)

type replay = {
  records : record list;  (** complete, checksummed records, in order *)
  dropped_bytes : int;  (** bytes of torn tail discarded, 0 if none *)
  torn : string option;
      (** why the tail was dropped ([None] when the log ended cleanly) *)
}

val replay_string : string -> replay
(** Parse a whole WAL image (header included).  Torn tails are
    reported, not raised; everything else raises {!Corrupt}. *)

val replay_file : string -> replay
(** {!replay_string} of the file's bytes.  A missing file replays as
    empty (a crash can predate the first append). *)

(** {1 The log handle} *)

type t

val create : ?fs:Legodb_wire.Wire.fs -> next_seq:int -> string -> t
(** Create (or truncate) the log at a path: write the header, fsync.
    The next {!append} gets sequence number [next_seq]. *)

val reopen :
  ?fs:Legodb_wire.Wire.fs -> valid_bytes:int -> next_seq:int -> string -> t
(** Open an existing log for appending after recovery, first truncating
    it to [valid_bytes] (cutting a torn tail off), so the log on disk
    is exactly its replayable prefix again. *)

val stage : t -> (string * Storage.row list) list -> int
(** Assign the next sequence number to one append and buffer it in the
    {e open group}; nothing touches the disk.  The append is {e not}
    durable (and must not be acknowledged) until the next {!flush}
    returns. *)

val flush : t -> unit
(** Commit the open group: encode every staged append into one commit
    unit ({!encode_group}), write it with a single [write], and fsync
    once.  Only after [flush] returns are the staged appends durable —
    this is the ack barrier.  A no-op (no write, no fsync) when
    nothing is staged.  If the write or fsync raises, the unit may be
    torn on disk and {e none} of the group was acknowledged; the torn
    tail is exactly what replay truncates, and the staged buffer is
    left in place so the caller can go fail-stop. *)

val staged : t -> int
(** Appends in the open group (staged since the last {!flush}). *)

val append : t -> (string * Storage.row list) list -> int
(** [stage] + [flush] — the PR 8 fsync-per-append discipline, one
    record and one fsync per append; returns the record's sequence
    number.  If the write or fsync raises, the record may be torn on
    disk — the caller must treat the append as failed (it is exactly
    what replay truncates). *)

val reset : t -> unit
(** Truncate back to the header and fsync — the post-snapshot log
    reset.  Sequence numbers are {e not} reset; they stay monotone so
    replay can tell pre- from post-snapshot records. *)

val next_seq : t -> int
val close : t -> unit

(** {1 Commit accounting} *)

type stats = {
  appends : int;  (** appends acknowledged (staged and then flushed) *)
  fsyncs : int;  (** append-path fsyncs: one per non-empty {!flush} *)
  groups : int;  (** non-empty flushes — commit units written *)
  max_group : int;  (** largest group committed by one flush *)
  bytes : int;  (** bytes written to the log: its header and every commit unit *)
}
(** What group commit saves is fsyncs per append:
    [fsyncs /. appends] is 1.0 under fsync-per-append and [1/k] for
    steady groups of [k].  {!reset}'s truncation fsync is not counted
    — the ratio is strictly about the append path. *)

val stats : t -> stats

(** {1 Snapshots} *)

val manifest_file : string -> string
(** [manifest_file dir] — the manifest's path under a data directory. *)

val write_snapshot :
  ?fs:Legodb_wire.Wire.fs ->
  path:string ->
  schema:Xschema.t ->
  ordered:bool ->
  last_seq:int ->
  Storage.t ->
  unit
(** Dump a (frozen) store durably and atomically: schema, mapping
    order-columns flag, the last append sequence the dump covers, and
    every table's rows — streamed in 64 KiB chunks
    ({!Legodb_wire.Wire.write_frame_atomic}), never built as one
    string. *)

type snapshot = {
  s_schema : Xschema.t;  (** the p-schema the catalog derives from *)
  s_ordered : bool;  (** the mapping's [order_columns] flag *)
  s_last_seq : int;  (** WAL records [<= s_last_seq] are already in *)
  s_fill : Storage.t -> unit;
      (** insert the dump's rows into a fresh store for the same
          catalog; raises {!Corrupt} on any mismatch *)
}

val load_snapshot : string -> snapshot
(** Validate (magic, version, length, CRC — before any decoding) and
    decode the header fields; rows are decoded lazily by [s_fill].
    @raise Corrupt *)

(** {1 Segments and the manifest}

    A durable publish writes only what it sealed: one {e segment} file
    holding the rows of the appends since the previous publish (or the
    merge of that with the newest segments, under
    {!Legodb_relational.Storage}'s merge rule), then the manifest that
    names it.  The directory's state is the snapshot image, then the
    manifest's segments in order, then the log's records past the
    manifest's [m_last_seq]. *)

val write_segment :
  ?fs:Legodb_wire.Wire.fs ->
  dir:string ->
  first:int ->
  last:int ->
  Storage.t ->
  Storage.segment ->
  string * int
(** Write the segment (of the store's catalog) that holds the rows of
    appends [first] to [last] as [segment-<first>-<last>.legodb]: a
    framed [LEGODB-SEG] image, streamed, fsynced, not renamed — no
    manifest names it yet, and the manifest's directory fsync makes its
    entry durable.  Returns the file name and the bytes written. *)

type segment = {
  g_first : int;  (** the first append the segment holds *)
  g_last : int;  (** the last *)
  g_fill : Storage.t -> unit;
      (** insert its rows into the store; raises {!Corrupt} on any
          mismatch with the catalog *)
}

val load_segment : string -> segment
(** Validate (magic, version, length, CRC) and decode a segment file.
    @raise Corrupt, also when the file is missing. *)

type manifest = {
  m_last_seq : int;
      (** the last append the snapshot and the segments cover *)
  m_segments : (string * int * int) list;
      (** file, first and last append of each segment, in order *)
}

val write_manifest : ?fs:Legodb_wire.Wire.fs -> dir:string -> manifest -> int
(** Replace the manifest durably and atomically (write, fsync, rename,
    directory fsync).  Returns the bytes written. *)

val load_manifest : string -> manifest option
(** The manifest of a data directory; [None] when there is none (a
    directory no publish has written one into, or one written before
    segments existed: the snapshot and the log are then the whole
    state).  @raise Corrupt on a damaged manifest, or one whose segments
    are not contiguous or not named for their records. *)

val is_segment_file : string -> bool
(** Whether a directory entry's name is a segment file's. *)
