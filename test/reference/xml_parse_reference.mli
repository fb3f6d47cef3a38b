open Legodb_xml

(** A small, dependency-free XML parser.

    Supports the XML subset needed for LegoDB test and benchmark data:
    elements, attributes (single- or double-quoted), character data, the
    five predefined entities plus decimal/hex character references,
    comments, CDATA sections, and an optional XML declaration /
    DOCTYPE (both skipped).  Namespaces are not interpreted (prefixes
    are kept as part of the tag name). *)

exception Parse_error of { position : int; message : string }
(** Raised on malformed input; [position] is a byte offset. *)

val parse_string : string -> Xml.t
(** Parse a complete document from a string.  Whitespace-only text
    between elements is dropped; other text is preserved verbatim.
    @raise Parse_error on malformed input. *)

val parse_file : string -> Xml.t
(** Read a file and {!parse_string} it. *)

val error_message : int -> string -> string -> string
(** [error_message pos msg input] renders a one-line diagnostic with
    line/column information computed from [input]. *)
