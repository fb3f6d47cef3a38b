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

val equality_columns : Logical.query list -> (string * string) list
(** The (table, column) pairs compared to constants anywhere in the
    queries — the columns a tuned installation would index (the paper's
    "in the presence of appropriate indexes"). *)

val translate_update :
  Mapping.t -> Legodb_xquery.Xq_ast.update -> Logical.update
(** Translate an update statement: an INSERT becomes one insert per
    table of the target element's subtree (averaged over storage
    alternatives, since a new element lands in exactly one partition),
    weighted by the average instances-per-parent from the statistics;
    DELETE and SET pair each write with the SPJ block locating the
    affected rows, deletes cascading over the subtree's tables.
    @raise Untranslatable *)

(** {1 Translations carried from a parent configuration}

    A search prices each candidate one rewriting away from a priced
    parent.  A statement's translation reads the mapping only through
    {!Mapping.find_def}, {!Mapping.column}, {!Mapping.card} and
    {!Mapping.table_columns}; recorded with {!Mapping.record}, those
    reads decide whether the parent's translation is the child's. *)

type 'a translation = {
  translated : 'a;
  tables : string list;
      (** the read set: the distinct tables the statement's blocks
          reference (an update's also the tables it writes), sorted *)
  reads : Mapping.reads;  (** what translating read of the mapping *)
}

val derive :
  ?parent:Logical.query translation ->
  Mapping.t ->
  Legodb_xquery.Xq_ast.t ->
  Logical.query translation
(** [derive ~parent m q] is [parent]'s query and read set when [m] was
    made by {!Mapping.derive} from the mapping [parent] was translated
    under and {!Navigate.recheck} finds every read unchanged ([parent]
    itself when no navigation had to be asked again); otherwise
    {!translate} under a recording view.  Either way the query, read
    set and reads equal a fresh recorded translation's.
    @raise Untranslatable *)

val derive_update :
  ?parent:Logical.update translation ->
  Mapping.t ->
  Legodb_xquery.Xq_ast.update ->
  Logical.update translation
(** {!derive} for an update statement.
    @raise Untranslatable *)
