(** Relational catalogs: schemas plus the statistics the optimizer
    consumes (the "Relational schema + statistics" box of Figure 7). *)

type col_stats = {
  distinct : float;  (** number of distinct non-null values *)
  null_frac : float;  (** fraction of rows that are NULL, in [0,1] *)
  v_min : int option;  (** integers only *)
  v_max : int option;
  avg_width : float;  (** average stored width, bytes *)
}

type column = {
  cname : string;
  ctype : Rtype.t;
  nullable : bool;
  stats : col_stats;
}

type table = {
  tname : string;
  key : string;  (** name of the id column (also in [columns]) *)
  columns : column list;
  fks : (string * string) list;  (** (column, parent table) *)
  indexed : string list;  (** columns with an index; the key's is clustered *)
  card : float;  (** number of rows *)
}

type t = { tables : table list }

val find_table : t -> string -> table option

val table : t -> string -> table
(** @raise Not_found *)

val find_column : table -> string -> column option

val column : table -> string -> column
(** @raise Not_found *)

val row_width : table -> float
(** Average stored row width: sum of column average widths. *)

val has_index : table -> string -> bool

val add_indexes : t -> (string * string) list -> t
(** Add an index on every listed (table, column) that exists. *)

val validate : ?valid:(table -> bool) -> t -> (unit, string list) result
(** Table names unique; column names unique per table; key and FK
    columns exist; fractions within range.  A table for which [valid]
    holds (default: none) is known to pass its own checks, as a table
    of a catalog that validated does: only its foreign keys' targets
    are checked. *)

val pp : Format.formatter -> t -> unit
(** DDL-like rendering as in Figures 3/4:
    [TABLE Show ( Show_id INT, type STRING, ... )]. *)
