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

type derivation
(** How a mapping's tables were derived: each table with what its
    derivation read, and, for a mapping made by {!derive}, what
    differs from its parent. *)

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
  derivation : derivation;
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

val derive : parent:t -> Xschema.t -> (t, string list) result
(** {!of_pschema} of a configuration one rewriting away from [parent]'s
    (with [parent]'s [ordered]), taking every table of [parent] whose
    derivation reads the same in the new schema: its own definition is
    not {!Xschema.redefined}; every fact it read of another definition
    (whether it is transparent, its cardinality estimate) rests on no
    redefined definition or comes out the same again; and every
    referrer list it read is equal.  A table derived afresh that
    equals [parent]'s table of the same name (record and renamed
    positions) is [parent]'s record too.  The result equals
    {!of_pschema}'s field for field; the kept tables are [parent]'s
    own records ([==]), which is what {!fingerprints} and {!unchanged}
    test.  Fails exactly when {!of_pschema} does. *)

val is_transparent : Xschema.t -> string -> bool

(** {1 Read recording}

    Navigation and translation read a mapping only through
    {!find_def}, {!find_root}, {!column}, {!card} and {!table_columns}.
    {!record} logs those reads, and {!unchanged} tells whether a
    mapping made by {!derive} answers every one of them as its parent
    did — in which case anything computed from them, such as a
    statement's translation, is the parent's. *)

type reads
(** What a computation read: whole definitions by name, definitions'
    root elements, column names, tables' column lists and
    cardinalities, and logged {!call}s, each with the answer it got. *)

type call = ..
(** A call into a reader of the mapping, logged as one read with its
    answer and its own reads ({!Navigate} logs each navigation). *)

val find_def : t -> string -> Xtype.t option
(** The definition of a type name, as {!Xschema.find_opt}; a read of
    the whole definition. *)

(** A definition as {!find_root} answers it. *)
type root =
  | Rooted of Xtype.elem  (** a body that is one element *)
  | Unrooted of Xtype.t  (** any other body *)
  | Undefined

val find_root : t -> string -> root
(** The definition of a type name, read for its root element: for a
    [Rooted e] answer the read covers [e]'s label and whether its
    content is {!scalar_content} — all a caller may use of [e] — and
    any other answer is a read of the whole definition. *)

val record : t -> (t -> 'a) -> 'a * reads
(** [record m f] runs [f] on a view of [m] that logs every read, and
    returns its result with the reads.  The view is [f]'s alone: it is
    not shared with other domains. *)

val recording : t -> bool
(** [m] is a view made by {!record}. *)

val note_call : t -> call -> unit
(** Log a call in a recording view's reads (no-op otherwise). *)

val calls : reads -> call list
(** The calls logged, newest first. *)

val with_calls : reads -> call list -> reads
(** The reads with their calls replaced. *)

val unchanged : t -> reads -> bool
(** [unchanged m r]: [m] was made by {!derive}, and each read in [r]
    of [m]'s parent answers the same in [m].  A whole definition must
    be the parent's body ([==]), or absent from both; any other read
    is the same when what it depends on is the parent's (the
    definition's body, the table's record, both [==]), and otherwise
    is asked again and compared.  Logged {!calls} are not checked
    here: their logger checks them ({!Navigate.recheck}).  [false]
    for a mapping made by {!of_pschema}. *)

val same_reads : reads -> reads -> bool
(** Equal logs, read for read and answer for answer. *)

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

type fingerprints
(** Every table's fingerprint, with the shape it extends, in catalog
    order and keyed by type name. *)

val fingerprints : ?parent:fingerprints -> Rschema.t -> fingerprints
(** Each table's shape extended with one Weisfeiler–Leman round over
    its parents' shapes, so the join topology is part of it.  Two
    tables with equal fingerprints produce identical optimizer
    estimates.  With [parent] (the fingerprints of the catalog one
    rewriting earlier), a table whose record is the parent's own
    ([==]) keeps the parent's shape, and keeps its fingerprint too when
    each table it references is the parent's own record or absent from
    both catalogs; the bytes are those computed afresh. *)

val fingerprint_list : fingerprints -> (string * string) list
(** [(type name, fingerprint)] for every table, in catalog order. *)

val table_fingerprints : Rschema.t -> (string * string) list
(** [fingerprint_list (fingerprints cat)]. *)

val find_fingerprint : fingerprints -> string -> string option
(** A table's fingerprint by type name, in O(1). *)

val kept_fingerprint : fingerprints -> string -> bool
(** The table's fingerprint is its parent's, kept by {!fingerprints}
    without rebuilding it ([false] for a table it does not name). *)

val catalog_fingerprint : (string * string) list -> string
(** Order-independent fingerprint of the whole catalog (tag byte [C],
    then the sorted table fingerprints, framed); configurations reached
    by different transformation orders compare equal.  Used by
    {!Search.beam} to deduplicate configurations. *)

val frame_string : char -> ?index:int -> string list -> string
(** [frame_string tag ~index parts]: the byte [tag], [index] as 4
    bytes little-endian when given, then the count of [parts] and each
    part length-prefixed, in the given order (4-byte little-endian
    counts and lengths), built in one string of the exact length.
    Injective in [parts] after the fixed-length prefix: the framing of
    every fingerprint above and of {!Cost_engine}'s statement keys. *)

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
