(** A small SQL abstract syntax with printing — the "SQL queries" output
    of the Query/Schema translation module (Figure 7).  The optimizer
    works on logical plans; this module exists so translated workloads
    can be displayed and shipped to an external RDBMS. *)

type table_ref = { table : string; alias : string }
type col_ref = { calias : string; col : string }

type operand =
  | Col of col_ref
  | Int of int
  | Str of string
  | Param of int  (** a prepared statement's slot [k], printed [?k] *)

type op = Eq | Ne | Lt | Le | Gt | Ge

type cond = { op : op; lhs : operand; rhs : operand }

type select = {
  proj : col_ref list;  (** empty means [SELECT *] *)
  from : table_ref list;
  where : cond list;  (** conjunction *)
}

type statement =
  | Select of select
  | Union_all of select list
      (** the outer-union decomposition of publishing queries *)

val col : string -> string -> col_ref
val eq : operand -> operand -> cond
val pp_select : Format.formatter -> select -> unit
val pp_statement : Format.formatter -> statement -> unit
val to_string : statement -> string

val ddl : Rschema.t -> string
(** CREATE TABLE statements (with PRIMARY KEY and REFERENCES clauses)
    for a whole catalog. *)
