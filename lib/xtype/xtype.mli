(** The type language of the XML Query Algebra, with statistics.

    This single AST serves both ordinary XML Schemas and the paper's
    physical schemas (p-schemas); [Legodb_pschema.Pschema] decides which
    values are in the stratified fragment of Figure 9.

    Statistics annotations (Section 3.1) are carried inline:
    - every element node may carry its absolute occurrence count in the
      document ([ann.count]) and, for wildcard elements, the observed
      distribution of concrete tags ([ann.labels]);
    - every scalar may carry width / min / max / distinct-count.

    Annotations never affect semantic operations (equality of types,
    validation); they only feed the relational statistics translation. *)

(** {1 Occurrence bounds} *)

type bound = Bounded of int | Unbounded

type occurs = { lo : int; hi : bound }
(** [{lo; hi}] is the [{m,n}] cardinality annotation of the paper. *)

val occ : int -> bound -> occurs
val opt : occurs  (** [{0,1}] *)

val star : occurs  (** [{0,*}] *)

val plus : occurs  (** [{1,*}] *)

val once : occurs  (** [{1,1}] *)

val occurs_equal : occurs -> occurs -> bool

(** {1 Scalars} *)

type scalar_kind = String_t | Integer_t

type scalar_stats = {
  width : int;  (** average/declared byte width of the printed value *)
  s_min : int option;  (** minimum value, integers only *)
  s_max : int option;  (** maximum value, integers only *)
  distinct : int option;  (** number of distinct values *)
}

val default_width : scalar_kind -> int
(** Width assumed when no statistics are available. *)

val scalar_ok : scalar_kind -> string -> bool
(** Does a document text value inhabit the scalar type?  Integers allow
    surrounding whitespace and grouping commas ("183,752,965"): the
    reading of {!Legodb_xml.Xml.int_of_text}. *)

(** {1 The type AST} *)

type ann = {
  count : float option;
      (** total occurrences of this element in the document *)
  labels : (string * float) list;
      (** wildcard elements only: tag -> occurrence count *)
}

type t =
  | Empty  (** the empty sequence [()] *)
  | Scalar of scalar_kind * scalar_stats option
  | Attr of string * t  (** [@name[ t ]] — [t] is a scalar *)
  | Elem of elem  (** [label[ content ]] *)
  | Seq of t list  (** [t1, t2, ...] — invariant: ≥2 items, no nested Seq/Empty *)
  | Choice of t list  (** [(t1 | t2 | ...)] — invariant: ≥2 items *)
  | Rep of t * occurs  (** [t{m,n}] — invariant: not [{1,1}] *)
  | Ref of string  (** a type name *)

and elem = { label : Label.t; content : t; ann : ann }

(** {1 Smart constructors}

    These enforce the invariants noted above: [seq] and [choice] flatten
    nested lists and collapse singletons, [seq] drops [Empty], [rep]
    collapses [{1,1}] and fuses [Rep (Rep _)] by multiplying bounds. *)

val no_ann : ann
val scalar : scalar_kind -> t
val string_ : t
val integer : t
val attr : string -> t -> t
val elem : ?ann:ann -> Label.t -> t -> t
val named_elem : ?ann:ann -> string -> t -> t
val seq : t list -> t
val choice : t list -> t
val rep : t -> occurs -> t
val optional : t -> t
val ref_ : string -> t

(** {1 Queries over types} *)

val equal : t -> t -> bool
(** Structural equality {e ignoring} statistics annotations. *)

val equal_strict : t -> t -> bool
(** Structural equality including annotations. *)

val size : t -> int
(** Number of AST nodes. *)

val refs : t -> string list
(** Type names referenced, with duplicates, in left-to-right order. *)

val elements : t -> elem list
(** All element nodes, pre-order. *)

val nullable : t -> bool
(** Does the type accept the empty sequence?  [Ref] is conservatively
    non-nullable (use {!Xschema.nullable} for the closed version). *)

val map_ref : (string -> string) -> t -> t
(** Rename type references. *)

val scale_counts : float -> t -> t
(** Multiply every count annotation (element counts and scalar
    distincts are scaled; widths and min/max are kept).  Used when a
    rewriting splits a type into weighted parts. *)

(** {1 Sub-term addressing}

    A location is a path of child indices from the root of a type body:
    [Attr]/[Elem]/[Rep] have one child (index 0), [Seq]/[Choice] have
    one child per item. *)

type loc = int list

val subterm : t -> loc -> t option

val replace : t -> loc -> t -> t
(** [replace t loc u] substitutes [u] at [loc].  The result is
    re-normalized with the smart constructors.
    @raise Invalid_argument if [loc] does not address a sub-term. *)

val locations : t -> (loc * t) list
(** Every sub-term with its location, pre-order (root first). *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
(** Paper-style notation, e.g.
    [show \[ @type\[ String \], title\[ String \], Aka{1,10}, (Movie | TV) \]]. *)

val pp_with_stats : Format.formatter -> t -> unit
(** Like {!pp} but showing statistics annotations, e.g.
    [String<#50,#34798>] and [Review*<#10>]. *)

val to_string : t -> string
