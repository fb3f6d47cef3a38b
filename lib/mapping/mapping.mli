(** The fixed mapping [rel(ps)] from p-schemas to relational catalogs
    (Section 3.2, Table 1), including statistics translation.

    One table per reachable, {e non-transparent} type name; a
    transparent type (one whose body mentions only other type names,
    e.g. [type Show = (Show_Part1 | Show_Part2)] after union
    distribution) stores no data and is collapsed: its children attach
    directly to its nearest data-bearing ancestors, which is exactly
    the flat table set shown in Figure 4(c).

    Every table gets a key column [T_id]; a foreign key [parent_P] per
    (nearest non-transparent) parent type [P]; one column per scalar in
    the physical layer of the type's body (nullable when it sits under
    an optional); and for each wildcard element a tag column plus a
    value column.  Keys and foreign keys are indexed.

    This module is the only one that names a data column: {!Navigate}
    (and through it translation and shredding), {!Shred} and {!Publish}
    ask {!column} for the column of a stored position.  {!Naming} names
    the columns derived from a type name: keys, foreign keys and the
    document-order column. *)

open Legodb_xtype
open Legodb_relational

(** A stored position of a table, by its element path below the
    definition's root element; a wildcard step is ["tilde"] (the
    convention of {!Navigate.place}). *)
type position =
  | Scalar of string list
      (** the scalar content of the element or attribute at the path;
          [Scalar []] is the root element's own *)
  | Tag of string list  (** the concrete tag of the wildcard at the path *)
  | Wild of string list  (** the scalar content of the wildcard at the path *)

type t = {
  schema : Xschema.t;  (** the p-schema this catalog was derived from *)
  catalog : Rschema.t;
  transparent : string list;  (** collapsed type names *)
  ordered : bool;  (** tables carry a {!Naming.order_col} column *)
  renamed : ((string * position) * string) list;
      (** each position whose rule name an earlier position of the same
          table already took, keyed by table, with the [_2], [_3], ...
          column it got instead; empty unless two paths of one table
          join to the same name *)
}

val of_pschema : ?order_columns:bool -> Xschema.t -> (t, string list) result
(** Fails with the stratification violations if the schema is not a
    p-schema, or with catalog-consistency errors (which indicate a bug
    rather than a user error).

    With [~order_columns:true] (default false, matching the paper)
    every table additionally stores the element's global document
    order, which lets {!Publish} reconstruct documents exactly even
    when a type is horizontally partitioned — at the cost of 4 bytes
    per row and slightly wider scans. *)

val is_transparent : Xschema.t -> string -> bool

(** {1 Structural fingerprints}

    A fingerprint is an exact, name-independent byte string.  A table's
    {e shape} frames its cardinality and every column — type,
    nullability, complete statistics, index membership — with key and
    foreign-key columns anonymized, because their names embed type
    names that differ between transformation orders reaching the same
    configuration.  Every field opens with a tag byte, floats are their
    IEEE bits, and every variable-length field and list is length- or
    count-prefixed, so the encoding is injective: two fingerprints are
    equal exactly when what they frame is.  No [Printf] or [Format] is
    involved. *)

val table_fingerprints : Rschema.t -> (string * string) list
(** [(type name, fingerprint)] for every table, in catalog order: the
    table's shape extended with one Weisfeiler–Leman round over its
    parents' shapes, so the join topology is part of it.  Two tables
    with equal fingerprints produce identical optimizer estimates.
    Compute it once per catalog: {!fingerprint_index} and
    {!catalog_fingerprint} both derive from this list. *)

val fingerprint_index : (string * string) list -> (string, string) Hashtbl.t
(** The {!table_fingerprints} keyed by type name, so per-statement key
    construction does O(1) lookups per touched table. *)

val catalog_fingerprint : (string * string) list -> string
(** Order-independent fingerprint of the whole catalog (tag byte [C],
    then the sorted table fingerprints, framed); configurations reached
    by different transformation orders compare equal.  Used by
    {!Search.beam} to deduplicate configurations. *)

val add_frame : Buffer.t -> string list -> unit
(** [add_frame b parts] appends the count of [parts], then each part
    length-prefixed, in the given order (4-byte little-endian counts
    and lengths).  Injective in [parts] after a fixed-length prefix:
    the framing of every fingerprint above and of {!Cost_engine}'s
    statement keys. *)

val card : t -> string -> float
(** Cardinality of a type's table.  @raise Not_found for unknown or
    transparent types. *)

val column : t -> ty:string -> position -> string
(** The column of [ty]'s table that stores a position.  The naming
    rule joins the path with ['_'] (below a leading ["tilde"] step when
    the root element is a wildcard); the root element's own scalar takes
    its tag (["data"] for a body without a root element); a wildcard's
    value takes its parent's scalar name, or the tag column's name plus
    ["_data"] when the two coincide.  A position in [renamed] gets its
    recorded column.  A position the table does not store gets the name
    it would have had. *)

val scalar_content : Xtype.t -> bool
(** Content stored in one column: a scalar, or a union of literal
    scalars. *)

val table_columns : t -> string -> string list
(** Column names of a type's table, in order. *)
