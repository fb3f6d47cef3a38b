(** Import of W3C XML Schema (XSD) documents — the paper's input format
    (its Appendix B gives the IMDB schema in both the algebra notation
    and XSD).

    The supported subset covers what the paper's schemas use:
    [xsd:element] (global and local, by named type, inline
    [complexType], or scalar), [complexType], [sequence], [choice],
    [group] (definitions and references), [attribute], [any]
    (wildcards), [minOccurs]/[maxOccurs].  Namespace prefixes are
    ignored (matching is on local names).  Scalar types map to the
    algebra's [String]/[Integer]: [xsd:integer], [xsd:int],
    [xsd:number] become [Integer]; everything else becomes [String].

    Following the paper's convention, the definition created for an
    element of named complex type [CT] is called [CT]; if [CT] is
    instantiated under several different element names, later
    instantiations get fresh names.  Elements declared with neither a
    type nor content are imported as string elements. *)

exception Import_error of string

val schema_of_string : string -> Xschema.t
(** Parse and import.  @raise Import_error on unsupported constructs,
    {!Legodb_xml.Xml_parse.Parse_error} on malformed XML. *)

val schema_of_file : string -> Xschema.t
