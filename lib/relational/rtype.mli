(** Relational column types and runtime values. *)

type t =
  | R_int  (** INTEGER *)
  | R_string of int option  (** CHAR(n) when sized, STRING otherwise *)

val width : t -> int
(** Storage width in bytes: 4 for integers, the declared size for
    sized strings, a default for unsized strings. *)

val default_string_width : int
val pp : Format.formatter -> t -> unit
val to_sql : t -> string

(** {1 Values} *)

type value = V_int of int | V_string of string | V_null

val value_equal : value -> value -> bool
val compare_value : value -> value -> int

val value_width : value -> int
(** Actual width of a stored value. *)

val is_null : value -> bool
val pp_value : Format.formatter -> value -> unit

val value_to_sql : value -> string
(** SQL literal syntax (strings quoted and escaped, NULL). *)
