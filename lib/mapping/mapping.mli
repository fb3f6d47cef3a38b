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
    value column.  Keys and foreign keys are indexed. *)

open Legodb_xtype
open Legodb_relational

type t = {
  schema : Xschema.t;  (** the p-schema this catalog was derived from *)
  catalog : Rschema.t;
  transparent : string list;  (** collapsed type names *)
  ordered : bool;  (** tables carry a {!Naming.order_col} column *)
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

val fingerprint_index : Rschema.t -> (string, string) Hashtbl.t
(** Every table's fingerprint, keyed by type name.  A fingerprint is a
    name-independent structural serialization of the table (columns
    with their complete statistics, nullability, index membership,
    cardinality; key and foreign-key columns anonymized) extended with
    one Weisfeiler–Leman round over its parents' serializations, so the
    join topology is part of it.  Two tables with equal fingerprints
    produce identical optimizer estimates.  Built once per costing
    pass so per-statement key construction does O(1) lookups per
    touched table instead of an assoc-list walk. *)

val catalog_fingerprint : Rschema.t -> string
(** Order-independent fingerprint of the whole catalog (the sorted
    table fingerprints joined); configurations reached by different
    transformation orders compare equal.  Used by {!Search.beam} to
    deduplicate configurations. *)

val card : t -> string -> float
(** Cardinality of a type's table.  @raise Not_found for unknown or
    transparent types. *)

val root_tag : Xschema.t -> string -> string option
(** The tag of a definition's root element, when its body is a single
    element ([Label.column_name] for wildcard roots). *)

val table_columns : t -> string -> string list
(** Column names of a type's table, in order. *)
