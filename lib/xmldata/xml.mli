(** XML document trees.

    The data model is deliberately small: an XML document is an element
    tree where each element has a tag name, a list of attributes and a
    list of children; children are elements or text nodes.  Namespaces,
    processing instructions and comments are outside the scope of the
    LegoDB mapping problem and are dropped at parse time. *)

type t =
  | Element of string * (string * string) list * t list
      (** [Element (tag, attributes, children)] *)
  | Text of string  (** character data *)

(** {1 Constructors} *)

val elem : ?attrs:(string * string) list -> string -> t list -> t
(** [elem tag children] builds an element node. *)

val text : string -> t
(** [text s] builds a text node. *)

val leaf : ?attrs:(string * string) list -> string -> string -> t
(** [leaf tag s] is [elem tag [text s]]: an element with text content. *)

(** {1 Accessors} *)

val tag : t -> string option
(** Tag name of an element node, [None] for text. *)

val attributes : t -> (string * string) list
(** Attributes of an element node, [[]] for text. *)

val attribute : string -> t -> string option
(** [attribute name node] looks an attribute up by name. *)

val children : t -> t list
(** Children of an element node, [[]] for text. *)

val element_children : t -> t list
(** Children that are elements, in document order. *)

val text_content : t -> string
(** Concatenation of every text descendant, in document order.  An
    element whose only child is a text node returns that node's string
    itself, uncopied. *)

val int_of_text : string -> int option
(** The integer an element's text denotes, if any: the text with
    surrounding whitespace trimmed and every [','] dropped, read by
    [int_of_string_opt] (so ["1,024"] and [" 7 "] are integers).  The
    one reading shared by statistics gathering, shredding, validation
    and query evaluation, so an integer path's values always load as
    integers.  Plain decimal text is read without allocating a copy. *)

val child_elements : string -> t -> t list
(** [child_elements tag node] returns the element children named [tag]. *)

val first_child : string -> t -> t option
(** First element child with the given tag, if any. *)

(** {1 Traversal} *)

val fold : ('a -> string list -> t -> 'a) -> 'a -> t -> 'a
(** [fold f init doc] folds [f] over every element node in document
    order.  [f acc path node] receives the tag path from the root to the
    node (inclusive). *)

val select : string list -> t -> t list
(** [select path doc] evaluates a simple child-axis path.  The first
    component must match the root tag; e.g.
    [select ["imdb"; "show"; "title"] doc]. *)

val count_elements : t -> int
(** Total number of element nodes in the tree. *)

(** {1 Comparison and printing} *)

val equal : t -> t -> bool
(** Structural equality.  Adjacent text nodes are normalized (merged)
    before comparison, and empty text nodes are ignored, so documents
    that serialize identically compare equal. *)

val normalize : t -> t
(** Merge adjacent text children and drop empty text nodes, recursively. *)

val pp : Format.formatter -> t -> unit
(** Pretty-print with indentation (not round-trip safe for mixed
    content; use {!to_string} for exchange). *)

val to_string : t -> string
(** Serialize compactly with correct escaping; round-trips through
    {!Xml_parse.parse_string}. *)
