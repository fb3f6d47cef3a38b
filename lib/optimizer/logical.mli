(** Logical query representation: select-project-join blocks.

    A translated XQuery becomes a {e set} of SPJ blocks whose costs add
    up (see DESIGN.md §3): the main FOR/WHERE/RETURN block, one block
    per nested FLWR in the return clause, and one block per root-to-leaf
    chain of a published subtree.  A block lists its relations (with
    aliases, since one table can occur twice, as in Q12's
    actor-and-director self-joins), a conjunction of predicates, and the
    projected columns. *)

type col = string * string
(** (alias, column) *)

type operand =
  | O_const of Legodb_relational.Rtype.value
  | O_col of col
  | O_param of int
      (** slot [k] of the parameter vector the plan is executed with
          ({!Executor.run}[ ~params]): a template's constant.
          Estimation and access-path choice treat it exactly like an
          [O_const] under the same comparison, since an equality
          constant is seen only through the column's [distinct]. *)

type cmp = C_eq | C_ne | C_lt | C_le | C_gt | C_ge

type pred = { cmp : cmp; lhs : col; rhs : operand }

type relation = { alias : string; table : string }

type block = {
  relations : relation list;
  preds : pred list;
  out : col list;  (** empty means: every column of every relation *)
}

type query = { qname : string; blocks : block list }

val eq_col : col -> col -> pred
val eq_const : col -> Legodb_relational.Rtype.value -> pred

val pred_aliases : pred -> string list

val local_preds : pred list -> string -> pred list
(** Predicates local to one alias, in input order: every alias they
    mention equals [alias].  The single shared definition of "local"
    used by both the optimizer's access-path selection and the
    estimator's {!Estimate.base_rows}. *)

val block_wellformed :
  Legodb_relational.Rschema.t -> block -> (unit, string list) result
(** Aliases unique and resolvable; every referenced column exists. *)

val to_sql : block -> Legodb_relational.Sql.select
(** Render a block as SQL for display. *)

val query_to_sql : query -> Legodb_relational.Sql.statement list

val pp_block : Format.formatter -> block -> unit
val pp_query : Format.formatter -> query -> unit

(** {1 Write operations}

    The relational side of an XQuery update: each update statement
    becomes a set of writes, optionally driven by a locating SPJ block
    (the rows a DELETE/SET affects).  [w_per_row] is the number of rows
    written per located row (cascades multiply it), or the absolute row
    count when there is no locating block (INSERT). *)

type write_kind = W_insert | W_delete | W_update

type write = {
  w_table : string;
  w_kind : write_kind;
  w_locate : block option;  (** rows to affect; None for inserts *)
  w_per_row : float;
}

type update = { uname : string; writes : write list }

val pp_update : Format.formatter -> update -> unit
