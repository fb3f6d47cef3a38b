(** Translation of XQuery FLWR queries to relational SPJ blocks under a
    mapping (the Query translation half of Figure 7's Query/Schema
    translation module).

    A query becomes a set of blocks whose costs add up:

    - the {b main block} joins the tables reached by the FOR bindings
      (each binding's foreign-key chain from its anchor), applies the
      WHERE predicates, and projects the scalar return paths;
    - every {b published subtree} ([RETURN $v], or a return path landing
      on a non-scalar element) contributes its own table's columns to
      the main block plus one block per descendant table (outer-union
      decomposition, as relational XML publishers do);
    - every {b nested FLWR} in the return clause becomes its own block
      carrying the outer context's joins and predicates;
    - a binding or path that resolves to several storage alternatives
      (horizontally partitioned types, choices) multiplies the blocks —
      the union of per-partition queries of Section 5.4;
    - a path step matched by a {b wildcard} element turns into an
      equality predicate on the tag column plus a use of the value
      column ([Π_data σ_tilde='nyt' reviews]).

    A predicate path that does not exist in a partition kills that
    partition's blocks (the selection is unsatisfiable there); a return
    path that does not exist is simply omitted. *)

open Legodb_optimizer

exception Untranslatable of string
(** Raised when a query step cannot be resolved at all (e.g. a path
    through no known element, or a comparison of whole subtrees). *)

val translate : Mapping.t -> Legodb_xquery.Xq_ast.t -> Logical.query
(** A WHERE constant becomes an equality against {!const_value} of it,
    and a template's {!Legodb_xquery.Xq_ast.O_param}[ k] the same
    equality against {!Logical.O_param}[ k]: translation never reads a
    constant's value, so a statement and its {!Legodb_xquery.Xq_ast.lift}ed
    template translate to the same blocks up to those operands.
    @raise Untranslatable *)

val const_value : Legodb_xquery.Xq_ast.const -> Legodb_relational.Rtype.value
(** The relational value a WHERE constant compares as: [C_int] as
    [V_int], [C_string] as [V_string].  Binding a lifted parameter
    vector through it gives a template's plan the statement's own
    constants. *)

val query_tables : Logical.query -> string list
(** The distinct tables the query's SPJ blocks reference, sorted.  This
    is the query's read set: its optimizer cost depends only on these
    tables (their statistics and indexes), which is what lets the
    incremental cost engine reuse a cached cost when none of them
    changed. *)

val translate_with_tables :
  Mapping.t -> Legodb_xquery.Xq_ast.t -> Logical.query * string list
(** {!translate} paired with {!query_tables} of the result.
    @raise Untranslatable *)

val equality_columns : Logical.query list -> (string * string) list
(** The (table, column) pairs compared to constants anywhere in the
    queries — the columns a tuned installation would index (the paper's
    "in the presence of appropriate indexes"). *)

val max_alternatives : int
(** Bound on the cross-product of storage alternatives explored per
    query (safety valve; far above anything the workloads need). *)

val translate_update :
  Mapping.t -> Legodb_xquery.Xq_ast.update -> Logical.update
(** Translate an update statement: an INSERT becomes one insert per
    table of the target element's subtree (averaged over storage
    alternatives, since a new element lands in exactly one partition),
    weighted by the average instances-per-parent from the statistics;
    DELETE and SET pair each write with the SPJ block locating the
    affected rows, deletes cascading over the subtree's tables.
    @raise Untranslatable *)

val update_tables : Logical.update -> string list
(** The distinct tables the update writes or reads (written tables plus
    the relations of every locating block), sorted — the invalidation
    set for cached write costs. *)

val translate_update_with_tables :
  Mapping.t -> Legodb_xquery.Xq_ast.update -> Logical.update * string list
(** {!translate_update} paired with {!update_tables} of the result.
    @raise Untranslatable *)
