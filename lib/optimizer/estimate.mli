(** Cardinality and selectivity estimation over catalog statistics. *)

open Legodb_relational

type env
(** Resolves aliases to catalog tables for one block.  Internally the
    alias -> table binding is an array indexed by alias id (the alias's
    position in the block's relation list) with a hashtable from name
    to id, so every lookup is O(1) instead of an assoc-list walk. *)

val env : Rschema.t -> Logical.block -> env
(** @raise Invalid_argument if an alias does not resolve. *)

val alias_id : env -> string -> int
(** The alias's position in the block's relation list.
    @raise Invalid_argument on an unknown alias. *)

val table_of : env -> string -> Rschema.table

val table_at : env -> int -> Rschema.table
(** [table_at env i = table_of env alias] when [alias] has id [i]. *)

val column_of : env -> Logical.col -> Rschema.column

val row_floor : float
(** Lower bound every row estimate is clamped to (1.0). *)

val local_preds : env -> string -> Logical.pred list
(** {!Logical.local_preds} over the block's predicates. *)

val pred_selectivity : env -> Logical.pred -> float
(** Textbook System-R rules: equality with a constant selects
    [(1 - null_frac) / distinct]; ranges interpolate with min/max when
    known (1/3 otherwise); column-column equality selects
    [1 / max(d1, d2)] discounted by null fractions.  A parameter slot
    ({!Logical.O_param}) is a constant whose value is unknown:
    (in)equality reads only [distinct], so it selects exactly what any
    constant would; a range against it takes the 1/3 default. *)

val base_rows : env -> string -> float
(** Rows of an alias after its local predicates (never below a small
    positive floor). *)

val subset_rows : env -> string list -> float
(** Estimated result cardinality of joining the given aliases with
    every block predicate whose aliases all fall inside the subset. *)

val output_width : env -> Logical.col list -> string list -> float
(** Average output row width of the projection (all columns of the
    listed aliases when the projection is empty). *)
