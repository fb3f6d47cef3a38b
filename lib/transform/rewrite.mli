(** The schema rewritings of Section 4.1.

    Each rewriting takes a schema and a location [(tname, loc)]
    addressing a sub-term of the body of definition [tname], checks its
    applicability condition, and returns the rewritten schema.
    Statistics annotations are redistributed so that the relational
    statistics derived from the result remain consistent (e.g. union
    distribution splits the duplicated prefix's counts by branch
    weight).

    All rewritings except {!union_to_options} preserve the set of valid
    documents exactly; [union_to_options] widens it
    ([ (t1|t2) ⊆ (t1?,t2?) ], as noted in the paper). *)

open Legodb_xtype

exception Not_applicable of string
(** Raised when a rewriting's precondition fails; the payload says
    why. *)

(** {1 Shared helpers} *)

val card_of_def : ?read:(string -> unit) -> Xschema.t -> string -> float option
(** Estimated number of instances of a type (the cardinality of its
    table under the fixed mapping): the summed counts of the top-level
    elements of its body, following references.  [read] is called with
    every name whose definition the estimate looks up. *)

val branch_weights : Xschema.t -> Xtype.t list -> float list
(** Relative frequency of each branch of a union, normalized to sum
    to 1.  Derived from the count of each branch's first mandatory
    element (following references); equal weights when no statistics
    are available. *)

val inlinable_position : Xschema.t -> tname:string -> loc:Xtype.loc -> bool
(** Is the given position in the physical layer — reachable from the
    body root through elements, sequences and optional repetitions
    only?  (The paper's "only within sequences or nested elements".) *)

(** {1 Inlining / outlining} *)

val outline :
  ?name:string -> Xschema.t -> tname:string -> loc:Xtype.loc -> Xschema.t * string
(** Give a type name to the element at [loc] and replace it by a
    reference.  The generated name capitalizes the element tag
    (disambiguated if taken); [?name] overrides it.  Returns the new
    schema and the new type's name.  Applicable when the sub-term is an
    element other than the body root. *)

val can_inline : Xschema.t -> tname:string -> loc:Xtype.loc -> bool

val inline : Xschema.t -> tname:string -> loc:Xtype.loc -> Xschema.t
(** Replace the reference at [loc] by the body of the referenced
    definition and drop that definition.  Applicable when the sub-term
    is a reference to a non-recursive type used exactly once, in an
    {!inlinable_position}. *)

(** {1 Union rewritings} *)

val distribute_union : Xschema.t -> tname:string -> loc:Xtype.loc -> Xschema.t
(** Full union distribution at the [Choice] found at [loc]:
    [(a,(b|c)) == (a,b | a,c)] if the union sits in a sequence, then
    [a\[t1|t2\] == a\[t1\]|a\[t2\]] if the (possibly lifted) union is the
    whole content of an element, and finally each resulting branch is
    outlined so the result is a union of type names (the horizontal
    partitioning of Figure 4(c)). *)

val factor_union : Xschema.t -> tname:string -> loc:Xtype.loc -> Xschema.t
(** The inverse direction: at a [Choice] whose branches are elements
    with the same label, merge them ([a\[t1\]|a\[t2\] == a\[t1|t2\]]);
    at a [Choice] whose branches are sequences sharing an equal head,
    factor the head out ([ (a,b|a,c) == (a,(b|c)) ]).  References are
    followed (and their definitions merged) when branches are refs to
    structurally equal elements. *)

val union_to_options : Xschema.t -> tname:string -> loc:Xtype.loc -> Xschema.t
(** [(t1|t2)] becomes [(t1?, t2?)] — the inlining-enabling,
    validation-widening rewriting of [19].  Applicable at a [Choice] in
    an {!inlinable_position}. *)

(** {1 Repetition rewritings} *)

val split_repetition : Xschema.t -> tname:string -> loc:Xtype.loc -> Xschema.t
(** [t{l,h}] with [l ≥ 1, h > 1] becomes [t', t{l-1,h-1}] where [t'] is
    a fresh copy of [t]'s definition (so the mandatory first occurrence
    can be inlined independently, as in the paper's [a+ == a, a*]
    example).  Counts are split: the fresh copy receives one occurrence
    per parent, the remainder keeps the rest. *)

val merge_repetition : Xschema.t -> tname:string -> loc:Xtype.loc -> Xschema.t
(** Inverse of {!split_repetition}: at a [Seq] whose items [i, i+1] are
    a reference and a repetition of a structurally equal type, merge
    them into [t{l+1,h+1}].  [loc] addresses the sequence; the first
    matching adjacent pair is merged. *)

(** {1 Wildcards} *)

val materialize_wildcard :
  Xschema.t -> tname:string -> loc:Xtype.loc -> tag:string -> Xschema.t
(** At a wildcard element, split off a concrete tag:
    [~ == tag | ~!tag] distributed over the element constructor, with
    both alternatives outlined (the NYTReview / OtherReview example).
    Requires the element's label to admit [tag]; occurrence counts are
    split using the annotated label distribution. *)
