(** A small, dependency-free XML parser: the loader behind every path
    that reads a document (statistics gathering, shredding, validation,
    the server's appends).

    Supports the XML subset LegoDB needs: elements, attributes (single-
    or double-quoted), character data, the five predefined entities
    plus XML 1.0 character references ([&#]decimal[;], [&#x]hex[;])
    naming Unicode scalar values, comments, CDATA sections, and an
    optional XML declaration / DOCTYPE (both skipped).  Namespaces are
    not interpreted (prefixes are kept as part of the tag name).

    The scanner compares literals in place and copies each text run
    once, and each distinct tag or attribute name is one string per
    parse, shared by every element that carries it. *)

exception Parse_error of { position : int; message : string }
(** Raised on malformed input, including a character reference of any
    other form or naming a surrogate or a code point past U+10FFFF;
    [position] is a byte offset. *)

val parse_string : string -> Xml.t
(** Parse a complete document from a string.  Whitespace-only text
    between elements is dropped; other text is preserved verbatim.
    @raise Parse_error on malformed input. *)

val parse_file : string -> Xml.t
(** Read a file and {!parse_string} it. *)

val error_message : int -> string -> string -> string
(** [error_message pos msg input] renders a one-line diagnostic with
    line/column information computed from [input]. *)
