(** Path-keyed XML data statistics, in the style of the paper's
    Appendix A:

    {v
    (["imdb";"show"], STcnt(34798));
    (["imdb";"show";"title"], STsize(50));
    (["imdb";"show";"year"], STbase(1800,2100,300));
    v}

    A path is the chain of element tags from the document root; an
    attribute contributes its name as a final step; a wildcard element
    is the conventional step ["TILDE"]. *)

type stat =
  | STcnt of int  (** total number of occurrences of the path *)
  | STsize of int  (** average printed width, bytes *)
  | STbase of int * int * int  (** integers: min, max, distinct count *)
  | STdistinct of int  (** strings: distinct count (our extension) *)

type entry = {
  count : int option;
  size : int option;
  base : (int * int * int) option;
  distinct : int option;
}

type t
(** Immutable map from paths to entries. *)

val empty : t

val add : t -> string list -> stat -> t
(** Record one fact; later facts of the same kind overwrite. *)

val of_list : (string list * stat) list -> t
val find : t -> string list -> entry option
val count : t -> string list -> int option
val size : t -> string list -> int option

val children : t -> string list -> (string * entry) list
(** Entries exactly one step below the given path, keyed by that step. *)

val paths : t -> string list list
(** All recorded paths, sorted. *)

val merge : t -> t -> t
(** Point-wise merge; counts add, sizes average weighted by counts,
    bases widen, distincts take the max.  Used to combine statistics
    from several sample documents. *)

val pp : Format.formatter -> t -> unit
