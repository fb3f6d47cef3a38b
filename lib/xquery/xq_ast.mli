(** Abstract syntax for the XQuery subset of the paper's workloads
    (Appendix C): FLWR expressions with child-axis paths, conjunctive
    equality predicates, nested FLWRs and element constructors in the
    return clause. *)

type path = string list
(** Child steps from a binding; attribute access uses the attribute
    name as a step (the paper writes [$v/type] for the [@type]
    attribute). *)

type const = C_int of int | C_string of string
(** Symbolic constants like [c1] parse as strings. *)

type source =
  | Doc of path  (** [document("...")/imdb/show] or bare [imdb/show] *)
  | Var_path of string * path  (** [$v/episode] *)

type operand =
  | O_path of string * path
  | O_const of const
  | O_param of int
      (** slot [k] of a statement's parameter vector: what {!lift} puts
          where the [k]-th WHERE constant stood.  A flwr holding one is
          a statement {e template}; it is translated, estimated and
          planned like an equality constant whose value arrives only
          at execution. *)

type pred = { left : string * path; right : operand }
(** Equality only — the workload queries use no other comparison. *)

type ret =
  | R_path of string * path  (** [$v/title] *)
  | R_var of string  (** [$v] — publish the whole subtree *)
  | R_nested of flwr  (** a nested FOR in the return clause *)
  | R_elem of string * ret list  (** [<result> ... </result>] *)

and flwr = {
  bindings : (string * source) list;
  where : pred list;
  return : ret list;
}

type t = { name : string; body : flwr }

val check : t -> (unit, string list) result
(** Every variable used is bound (in scope), binding names are unique,
    and at least one binding is rooted in the document. *)

val lift : flwr -> flwr * const array
(** [lift f] is [f]'s template and its parameter vector: the [k]-th
    WHERE constant becomes [O_param k] and is element [k] of the
    array.  Constants are numbered in the outer WHERE clause first,
    left to right, then in each nested FLWR in return order
    (recursively); this is the only place slot order is defined.  Two
    statements that differ only in their WHERE constants (values or
    kinds) lift to equal templates; the kinds travel in the vector. *)

val pp : Format.formatter -> t -> unit
(** String constants print without quotes, so [C_int 1990] and
    [C_string "1990"] print alike: never use the printed text as a
    statement's identity. *)

(** {1 Updates}

    The update statements of the paper's future-work list ("including
    updates in our workload", Section 7): inserting a fresh element at
    a document path, deleting the elements a FLWR binds, and replacing
    a scalar value. *)

type update =
  | U_insert of { name : string; target : path }
      (** [INSERT imdb/show] — a new element (with its whole subtree)
          appears at the path *)
  | U_delete of { name : string; body : flwr; target : string }
      (** [FOR $v IN ... WHERE ... DELETE $v] *)
  | U_set of {
      name : string;
      body : flwr;
      target : string * path;
      value : const;
    }  (** [FOR $v IN ... WHERE ... SET $v/path = c] *)

val check_update : update -> (unit, string list) result
(** Variable scoping, like {!check}. *)

val pp_update : Format.formatter -> update -> unit
