(** Shredding: loading XML documents into the relational store under a
    mapping (the "XML data → Data loading → Tuples" path of Figure 7).

    Each element is routed with the same {!Navigate} resolution the
    query translator uses: inlined scalars fill columns of the current
    row, spliced types (whose bodies have no root element, e.g. the
    Movie branch) share one cached row per parent element, and
    element-rooted types get a fresh row per occurrence with a foreign
    key to their parent.  Ambiguous resolutions (horizontal partitions)
    are disambiguated by a one-level structural lookahead on the
    child's content.

    Resolution is memoized per {!shred_into} call: each (place, child
    tag) step is navigated once, and each table's row layout and each
    column's position and type are looked up once. *)

exception Shred_error of { path : string list; message : string }

val shred :
  Mapping.t -> Legodb_xml.Xml.t -> Legodb_relational.Storage.t
(** Create a database for the mapping's catalog and load one document.
    @raise Shred_error when the document does not fit the schema. *)

val shred_into :
  Legodb_relational.Storage.t -> Mapping.t -> Legodb_xml.Xml.t -> unit
(** Load an additional document into an existing database (ids continue
    from the current row counts).  The document's rows go in as one
    unit ({!Legodb_relational.Storage.atomically}): a rejected document
    leaves nothing in the database.
    @raise Shred_error when the document does not fit the schema, when
    it would give one row's column a second value (two elements or
    attributes reaching one storage position), or when its rows break a
    constraint the catalog declares — a NULL in a NOT NULL column, a
    duplicate key or a dangling foreign key (then [path] is the root
    and [message] the store's {!Legodb_relational.Storage.Violation}
    text). *)
