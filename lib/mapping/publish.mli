(** Publishing: reconstructing XML from the relational store (the
    inverse of {!Shred}; what a [RETURN $v] materializes).

    Children are emitted in schema order (the order the sequence type
    prescribes) and, within a repetition, in key order — which equals
    document order for documents loaded by {!Shred}.  An element
    expands each of its stored positions (scalar, tag and wildcard
    value) and each referenced type at most once, however many union
    branches reach it. *)

val element :
  Legodb_relational.Storage.t -> Mapping.t -> ty:string -> id:int ->
  Legodb_xml.Xml.t
(** Rebuild the element stored as row [id] of type [ty]'s table,
    including its whole subtree.
    @raise Invalid_argument if the type is unknown, transparent, or not
    rooted in an element; @raise Not_found if the row does not exist. *)

val document : Legodb_relational.Storage.t -> Mapping.t -> Legodb_xml.Xml.t
(** Rebuild the whole document from the root table's single row.
    @raise Failure if the root table does not hold exactly one row. *)
