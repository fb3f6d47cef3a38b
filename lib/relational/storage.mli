(** In-memory row storage with hash indexes.

    This is the execution substrate behind the cost model: integration
    tests shred documents into it, run translated queries with
    {!Legodb_optimizer.Executor}, and check that the optimizer's
    estimate {e orderings} agree with actual work done — and the query
    server ({!Legodb_serve.Serve}) answers requests over {!freeze}-d
    snapshots of it.

    Equality semantics are SQL's: a [V_null] key matches nothing.
    {!insert} never indexes NULL values and {!lookup} returns [[]] for
    a NULL probe on both the indexed and the scan path, mirroring the
    executor's join methods (which reject NULL keys through
    [eval_cmp]). *)

type row = Rtype.value array
(** One value per column, in catalog column order. *)

(** The growable array behind each table's open tail.  Exposed (transparently) so
    tests can check the growth policy: on reallocation the spare slots
    beyond [len] are filled with the already-live [data.(0)], never
    with the element being pushed — filling with the pushed element
    would keep otherwise-dead rows reachable from the spare capacity
    (a space leak). *)
module Vec : sig
  type 'a t = { mutable data : 'a array; mutable len : int }

  val create : unit -> 'a t
  val push : 'a t -> 'a -> unit

  val get : 'a t -> int -> 'a
  (** @raise Invalid_argument out of bounds (spare slots included). *)

  val length : 'a t -> int

  val capacity : 'a t -> int
  (** [Array.length] of the backing store, >= {!length}. *)
end

type t

(** {1 Segments}

    A table's rows live in immutable {e sealed segments}, each with its
    own indexes, plus one open {e tail} that only the working store has.
    {!insert} appends to the tail; {!seal} turns the tails of all tables
    into one new segment; {!freeze} seals and returns a snapshot that
    {e shares} every sealed segment with the working store instead of
    copying it.  Reads see segments oldest first, then the tail, so a
    table's positions, scan order and lookup order are insertion order
    however the rows are segmented.

    Segments merge under one fixed rule: after a seal, while the newest
    segment holds at least half as many rows as the one before it, the
    two are merged.  Segment sizes therefore at least halve from oldest
    to newest: a probe visits at most log2(rows) + 1 indexes per table,
    and a seal costs what it seals, amortized over that logarithm.

    Column statistics are kept exactly at insert (row and NULL counts,
    width sums, integer minimum and maximum, and each column's distinct
    values through per-value counts, or through its index when it has
    one), so a frozen catalog costs nothing to build and is bit-identical
    to a full pass over the rows. *)

val create : Rschema.t -> t
(** An empty database for the catalog.  Indexes declared in the catalog
    are maintained incrementally on insert; the key always has one. *)

val catalog : t -> Rschema.t

exception Violation of string
(** A row breaks a constraint the catalog declares: a NULL in a NOT
    NULL column, a key some stored row already holds, or a foreign key
    that names no row of its parent table.  One line. *)

val insert : t -> string -> row -> unit
(** Append a row to the table's tail.  NULL values are not entered into
    indexes (a NULL key can never be matched by {!lookup}).
    @raise Violation on a NULL in a NOT NULL column or a duplicate key
    (found through the key's index), with nothing inserted.
    @raise Invalid_argument if the table is unknown, the row has the
    wrong arity, or the database is a frozen snapshot. *)

val atomically : t -> (unit -> 'a) -> 'a
(** [atomically db f] runs [f], which inserts rows into [db], as one
    unit: a loader inserts a child before the parent its foreign key
    names, so foreign keys are checked when [f] returns, over the rows
    it added, against the whole store.  If [f] raises, or a foreign
    key names no row ([Violation]), every row [f] added is taken back
    out (indexes and statistics included) before the exception
    propagates: a rejected document leaves nothing behind.  [f] must
    not {!seal} or {!freeze} [db].
    @raise Invalid_argument on a frozen snapshot. *)

val row_count : t -> string -> int

val scan : t -> string -> row Seq.t
(** Segments oldest first, then the tail.  The sequence reads the
    table when it is traversed, so a held scan of a working store sees
    later inserts. *)

val get : t -> string -> int -> row
(** Row by position (0-based). *)

val lookup : t -> table:string -> column:string -> Rtype.value -> row list
(** Index lookup, in insertion order; falls back to a scan when the
    column has no index.  A [V_null] probe returns [[]] on either path —
    SQL equality, the same semantics the executor's join methods
    enforce.  Staged: the partial application [lookup db ~table
    ~column] resolves the table and its index once and returns the
    probe, which a compiled plan
    ({!Legodb_optimizer.Executor.compile}) keeps; later inserts into
    [db] stay visible to it, across seals too.
    @raise Invalid_argument on an unknown table or column, when the
    labels are applied. *)

val column_position : t -> table:string -> column:string -> int
(** @raise Not_found *)

val seal : t -> unit
(** Turn every table's tail into one new sealed segment (nothing
    happens when all tails are empty), then apply the merge rule.
    Invisible to readers: positions, scans and lookups are unchanged.
    @raise Invalid_argument on a frozen snapshot. *)

val freeze : t -> t
(** Seal, then a snapshot that shares every sealed segment with [db]
    (nothing is copied: segments are immutable) and whose catalog
    carries the statistics kept at insert — bit-identical to a full
    pass over its rows, so plans do not move.  {!insert} on it raises
    [Invalid_argument]; because nothing can mutate it, a frozen
    snapshot is safe to read from any number of domains concurrently —
    the read substrate of the query server.  Freezing a snapshot
    returns it. *)

val is_frozen : t -> bool

val total_rows : t -> int
val pp_summary : Format.formatter -> t -> unit

(** {1 Durable row dump}

    The row-level codec behind the query server's storage snapshots and
    write-ahead log ({!Legodb_serve.Wal}), in the shared
    {!Legodb_wire.Wire} format.  A dump stores data only — the catalog
    travels separately (as the p-schema it derives from) and statistics
    are kept by the inserts that reload it — and reloading a dump into a fresh
    store for the same catalog reproduces it row for row: positions,
    ids, and index contents included.  Readers raise
    {!Legodb_wire.Wire.Corrupt} on malformed input (wrong table set,
    arity mismatch, bad value tags). *)

val write_value : Buffer.t -> Rtype.value -> unit
val read_value : Legodb_wire.Wire.cursor -> Rtype.value

val write_row : Buffer.t -> row -> unit
val read_row : Legodb_wire.Wire.cursor -> arity:int -> row

val write_rows : ?spill:(unit -> unit) -> Buffer.t -> t -> unit
(** Every table of the catalog, in catalog order.  [spill] (default: a
    no-op) is called after each row, so a streamed writer
    ({!Legodb_wire.Wire.write_frame_atomic}) can hand the buffer on in
    chunks. *)

type segment
(** One sealed segment of a store, across all its tables. *)

val segments : t -> segment list
(** The sealed segments, oldest first: physically the same values for
    the working store and every snapshot frozen from it until a merge
    replaces them. *)

val segment_rows : segment -> int

val write_segment : ?spill:(unit -> unit) -> Buffer.t -> t -> segment -> unit
(** The segment's rows in {!write_rows}'s format (every table of [t]'s
    catalog, with its rows in this segment), so {!read_rows} reloads
    them.  @raise Invalid_argument for a segment of another catalog. *)

val read_rows : Legodb_wire.Wire.cursor -> t -> unit
(** Insert a dump's rows into [t] (normally fresh-created from the same
    catalog); indexes are maintained by the inserts.  @raise
    Legodb_wire.Wire.Corrupt if the dump's tables or arities do not
    match the catalog, or a row breaks a NOT NULL or key constraint. *)
