(** The query server's durability substrate: a write-ahead log of
    appends, segment files and the manifest that names them — store
    format 2 — in the shared {!Legodb_wire.Wire} format (the
    checkpoint codec's primitives).

    {2 On-disk layout}

    A server's data directory holds exactly:

    - [manifest.legodb] — the root: a framed [LEGODB-MANIFEST 2] image
      (header with version, CRC-32 and payload length) of the p-schema
      the mapping derives from, the mapping's order flag, the segments
      of the published store in order, and the last append they cover.
      Replaced atomically (write, fsync, rename, directory fsync) by
      {!Serve.create} and by every publish, after its segment is on
      disk.
    - [segment-<first>-<last>.legodb] — one per sealed segment of the
      published store: a framed [LEGODB-SEG] image of the rows of
      appends [first] to [last], in
      {!Legodb_relational.Storage.write_rows}'s format.  The rows the
      server was created over are append 0, so they are
      [segment-0-0], and a merge that reaches them writes
      [segment-0-<last>].  A publish writes one segment file, holding
      what it sealed (merged with the newest segments, under
      {!Legodb_relational.Storage}'s merge rule).
    - [wal.legodb] — a header line [LEGODB-WAL 2] followed by one
      {e commit unit} per {!flush}: a [G <crc32> <len>] line whose
      payload carries the first sequence number, the member count and
      every member's shredded rows per table under a single CRC (a lone
      append is a group of one).  A unit is written with one [write]
      and one [fsync] before any of its appends is acknowledged — group
      commit amortizes the device's sync latency over the whole group.
      The log is truncated back to its header after each publish's
      manifest is durable.

    Every image is streamed in bounded chunks
    ({!Legodb_wire.Wire.write_frame_atomic}), never built as one
    string.  A directory holding a [snapshot.legodb] image, or a
    version-1 manifest, was written in store format 1; recovery
    refuses it with {!Corrupt} and nothing writes to it.

    {2 Failure semantics}

    Sequence numbers tie the files together: the state is the
    manifest's segments, then the log records past the last append the
    manifest covers.  Replay applies exactly the records newer than the
    manifest, so a crash {e between} the manifest's rename and the log
    truncation (when the log still holds already-published records)
    never double-applies, and a crash before the rename leaves the old
    manifest, every segment it names and every record in the log (the
    unnamed segment file and manifest temporary are removed at
    recovery).  A segment a merge replaced is removed only after the
    manifest that drops it is durable.

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
(** The store is not usable: a manifest, segment or log truncated
    (where truncation is not a legal crash artifact), bit-flipped
    (checksum mismatch), of the wrong version, or with the wrong magic —
    each reported distinctly, one line.  The CLI maps this to exit code
    8 (the checkpoint's exit-7 convention, one code later). *)

val wal_file : string -> string
(** [wal_file dir] — the log's path under a data directory. *)

val manifest_file : string -> string
(** [manifest_file dir] — the manifest's path under a data directory. *)

(** {1 Records} *)

type record = {
  seq : int;  (** 1-based, contiguous, monotone across publishes *)
  rows : (string * Storage.row list) list;
      (** the shredded rows one append added, per table (tables the
          append left untouched are absent), in insertion order *)
}

val encode_group : record list -> string
(** The on-disk bytes of one commit unit (header line, checksummed
    payload, terminator) holding the records, one or more, under a
    single CRC.  Sequence numbers must be contiguous.
    @raise Invalid_argument on an empty or non-contiguous group. *)

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
    The next {!stage}d append gets sequence number [next_seq]. *)

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

val reset : t -> unit
(** Truncate back to the header and fsync — the post-publish log
    reset.  Sequence numbers are {e not} reset; they stay monotone so
    replay can tell published records from newer ones. *)

val next_seq : t -> int
val close : t -> unit

(** {1 Commit accounting} *)

type stats = {
  mutable appends : int;  (** appends acknowledged (staged and then flushed) *)
  mutable fsyncs : int;  (** append-path fsyncs: one per non-empty {!flush} *)
  mutable groups : int;  (** non-empty flushes — commit units written *)
  mutable max_group : int;  (** largest group committed by one flush *)
  mutable bytes : int;
      (** bytes written to the log: its header and every commit unit *)
}
(** What group commit saves is fsyncs per append:
    [fsyncs /. appends] is 1.0 under fsync-per-append and [1/k] for
    steady groups of [k].  {!reset}'s truncation fsync is not counted
    — the ratio is strictly about the append path.  A handle counts
    into one record of its own, from when it was created or reopened. *)

val stats : t -> stats
(** A copy of the handle's counters: later appends do not change it. *)

(** {1 The store}

    A durable publish writes only what it sealed: one {e segment} file
    holding the rows of the appends since the previous publish (or the
    merge of that with the newest segments, under
    {!Legodb_relational.Storage}'s merge rule), then the manifest that
    names every segment of the published store.  The directory's state
    is the manifest's segments in order, then the log's records past
    the manifest's [m_last_seq]. *)

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
  m_schema : Xschema.t;  (** the p-schema the catalog derives from *)
  m_ordered : bool;  (** the mapping's [order_columns] flag *)
  m_last_seq : int;  (** the last append the segments cover *)
  m_segments : (string * int * int) list;
      (** file, first and last append of each segment, in order, from
          append 0 on *)
}

val write_manifest : ?fs:Legodb_wire.Wire.fs -> dir:string -> manifest -> int
(** Replace the manifest durably and atomically (write, fsync, rename,
    directory fsync).  Returns the bytes written. *)

val load_manifest : string -> manifest
(** The manifest of a data directory.
    @raise Corrupt on a damaged manifest, one of another version (a
    store format 1 directory's), or one whose segments are not
    contiguous from append 0 or not named for their records.
    @raise Sys_error when there is none. *)

val check_format : string -> unit
(** @raise Corrupt when the directory is a store format 1 one: it holds
    a whole-store [snapshot.legodb] ({!load_manifest} refuses a
    version-1 manifest).  Nothing in it is read or written. *)

val remove_unnamed : dir:string -> manifest -> unit
(** Remove the files of [dir] the manifest does not name: segment files
    a merge replaced or a publish that crashed before its manifest
    wrote, and a manifest temporary never renamed. *)

(** {1 The whole-store image} *)

val snapshot_file : string -> string
(** [snapshot_file dir] — [snapshot.legodb] under a directory: the
    whole-store image of store format 1.  A data directory holding one
    is refused. *)

val write_snapshot :
  ?fs:Legodb_wire.Wire.fs ->
  path:string ->
  schema:Xschema.t ->
  ordered:bool ->
  last_seq:int ->
  Storage.t ->
  unit
(** Dump a (frozen) store durably and atomically as one framed
    [LEGODB-SNAP] image: schema, mapping order-columns flag, the last
    append sequence the dump covers, and every table's rows — streamed
    in 64 KiB chunks ({!Legodb_wire.Wire.write_frame_atomic}), never
    built as one string.  The server never writes one: perfbench's
    traced replay times it. *)
