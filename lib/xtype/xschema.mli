(** Named schemas: an ordered environment of type definitions plus a
    distinguished root type, as in

    {v
    type IMDB = imdb [ Show*, Director*, Actor* ]
    type Show = show [ ... ]
    v} *)

type defn = { name : string; body : Xtype.t }

type t
(** A schema.  Invariants: definition names are unique; lookups are
    O(1). *)

val make : root:string -> defn list -> t
(** @raise Invalid_argument on duplicate definition names. *)

val root : t -> string
val defs : t -> defn list

val find : t -> string -> Xtype.t
(** @raise Not_found if the type name is not defined. *)

val find_opt : t -> string -> Xtype.t option
val mem : t -> string -> bool

val add : t -> string -> Xtype.t -> t
(** Append a definition. @raise Invalid_argument if the name exists. *)

val update : t -> string -> Xtype.t -> t
(** Replace the body of an existing definition.
    @raise Not_found if absent. *)

val remove : t -> string -> t

val fresh_name : t -> string -> string
(** [fresh_name s base] returns [base] if unused, else [base'], [base''],
    … following the paper's convention (e.g. [Show'Part1]). *)

(** {1 Analyses} *)

val check : t -> (unit, string list) result
(** Well-formedness: the root is defined, every [Ref] resolves, and no
    type is "left-recursive" through a non-element position (a cycle of
    refs that never crosses an element boundary would denote no finite
    document). *)

val reachable : t -> string list
(** Type names reachable from the root, in discovery order (root
    first). *)

val gc : t -> t
(** Drop unreachable definitions. *)

val use_count : t -> string -> int
(** Number of [Ref] occurrences of a name across reachable definitions
    (sharing detector: inlining requires a use count of 1). *)

val referrers : t -> string -> string list
(** [referrers s name]: the defined types whose bodies reference [name]
    directly, in definition order.  [referrers s] indexes every
    definition's referrers in one pass over the bodies; apply it once
    per schema and query the result per name. *)

val redefined : t -> t -> string list
(** [redefined a b]: the names whose definition differs between [a] and
    [b], sorted: defined in only one of them, or bound to bodies that
    are not physically equal ([==]).  A rewriting rebuilds only the
    bodies it changes, so this is the handful of definitions one step
    touched. *)

val recursive : t -> string -> bool
(** Is the type part of a reference cycle? *)

val nullable : t -> Xtype.t -> bool
(** {!Xtype.nullable} closed under the schema's definitions. *)

val expand : ?depth:int -> t -> Xtype.t -> Xtype.t
(** Substitute definitions for references, [depth] levels deep
    (default 1).  Recursive types stop unfolding at the depth limit. *)

val equal : t -> t -> bool
(** Same root, same definition names (order-insensitive), and
    annotation-insensitive equal bodies. *)

val pp : Format.formatter -> t -> unit
val pp_with_stats : Format.formatter -> t -> unit
val to_string : t -> string
