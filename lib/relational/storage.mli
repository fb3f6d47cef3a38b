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

(** The growable array backing each table.  Exposed (transparently) so
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

  val copy : 'a t -> 'a t
  (** Independent exact-size copy ([capacity = length]: no spare
      slots), sharing only the elements. *)

  val to_seq : 'a t -> 'a Seq.t
end

type t

val create : Rschema.t -> t
(** An empty database for the catalog.  Indexes declared in the catalog
    are maintained incrementally on insert. *)

val catalog : t -> Rschema.t

val insert : t -> string -> row -> unit
(** Append a row.  NULL values are not entered into indexes (a NULL key
    can never be matched by {!lookup}).  @raise Invalid_argument if the
    table is unknown, the row has the wrong arity, or the database is a
    frozen snapshot. *)

val row_count : t -> string -> int
val scan : t -> string -> row Seq.t

val get : t -> string -> int -> row
(** Row by position (0-based). *)

val lookup : t -> table:string -> column:string -> Rtype.value -> row list
(** Index lookup; falls back to a scan when the column has no index.
    A [V_null] probe returns [[]] on either path — SQL equality, the
    same semantics the executor's join methods enforce.  Staged: the
    partial application [lookup db ~table ~column] resolves the table
    and its index once and returns the probe, which a compiled plan
    ({!Legodb_optimizer.Executor.compile}) keeps; later inserts into
    [db] stay visible to it.
    @raise Invalid_argument on an unknown table or column, when the
    labels are applied. *)

val column_position : t -> table:string -> column:string -> int
(** @raise Not_found *)

val refresh_stats : t -> t
(** Recompute catalog statistics (cardinalities, distinct counts, null
    fractions, widths, min/max) from the stored data.  Returns a fully
    {e independent} database: row vectors and index hashtables are
    copied (rows themselves are shared, but Storage never mutates a
    row), so inserts through either handle are invisible to the
    other. *)

val freeze : t -> t
(** {!refresh_stats} plus immutability: the returned database is an
    independent, alias-free snapshot whose catalog statistics match its
    contents exactly, and on which {!insert} raises
    [Invalid_argument].  Because nothing can mutate it, a frozen
    snapshot is safe to read from any number of domains concurrently —
    the read substrate of the query server. *)

val is_frozen : t -> bool

val total_rows : t -> int
val pp_summary : Format.formatter -> t -> unit

(** {1 Durable row dump}

    The row-level codec behind the query server's storage snapshots and
    write-ahead log ({!Legodb_serve.Wal}), in the shared
    {!Legodb_wire.Wire} format.  A dump stores data only — the catalog
    travels separately (as the p-schema it derives from) and statistics
    are recomputed by {!freeze} — and reloading a dump into a fresh
    store for the same catalog reproduces it row for row: positions,
    ids, and index contents included.  Readers raise
    {!Legodb_wire.Wire.Corrupt} on malformed input (wrong table set,
    arity mismatch, bad value tags). *)

val write_value : Buffer.t -> Rtype.value -> unit
val read_value : Legodb_wire.Wire.cursor -> Rtype.value

val write_row : Buffer.t -> row -> unit
val read_row : Legodb_wire.Wire.cursor -> arity:int -> row

val write_rows : Buffer.t -> t -> unit
(** Every table of the catalog, in catalog order. *)

val read_rows : Legodb_wire.Wire.cursor -> t -> unit
(** Insert a dump's rows into [t] (normally fresh-created from the same
    catalog); indexes are maintained by the inserts.  @raise
    Legodb_wire.Wire.Corrupt if the dump's tables or arities do not
    match the catalog. *)
