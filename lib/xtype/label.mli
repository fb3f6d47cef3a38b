(** Element labels, including the wildcards of the XML Query Algebra.

    [~] (match any tag) is written {!Any}; [~!a] (match any tag except
    the listed ones) is written {!Any_except}. *)

type t =
  | Name of string  (** a concrete tag *)
  | Any  (** [~]: any tag *)
  | Any_except of string list  (** [~!a]: any tag not listed *)

val matches : t -> string -> bool
(** Does a concrete document tag satisfy the label? *)

val remove : t -> string -> t option
(** [remove l tag] is the label matching everything [l] matches except
    [tag]; [None] if nothing remains.  Used by the wildcard
    materialization rewriting: [~ = nyt | ~!nyt]. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Paper notation: a bare name, [~], or [~!a,b]. *)

val to_string : t -> string

val column_name : t -> string
(** A deterministic identifier usable in relational column/table names:
    the tag for [Name], ["tilde"] for wildcards (as in the paper's
    mapped schemas). *)
