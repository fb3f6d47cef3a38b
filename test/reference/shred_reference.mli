open Legodb_mapping

(** Shredding: loading XML documents into the relational store under a
    mapping (the "XML data → Data loading → Tuples" path of Figure 7).

    Each element is routed with the same {!Navigate} resolution the
    query translator uses: inlined scalars fill columns of the current
    row, spliced types (whose bodies have no root element, e.g. the
    Movie branch) share one cached row per parent element, and
    element-rooted types get a fresh row per occurrence with a foreign
    key to their parent.  Ambiguous resolutions (horizontal partitions)
    are disambiguated by a one-level structural lookahead on the
    child's content. *)

exception Shred_error of { path : string list; message : string }

val shred :
  Mapping.t -> Legodb_xml.Xml.t -> Legodb_relational.Storage.t
(** Create a database for the mapping's catalog and load one document.
    @raise Shred_error when the document does not fit the schema. *)

val shred_into :
  Legodb_relational.Storage.t -> Mapping.t -> Legodb_xml.Xml.t -> unit
(** Load an additional document into an existing database (ids continue
    from the current row counts). *)
