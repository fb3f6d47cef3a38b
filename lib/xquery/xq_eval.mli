(** A naive reference evaluator for the XQuery subset, operating
    directly on document trees.

    It exists to cross-check the relational translation: for a query
    whose return paths are mandatory and single-valued, the number of
    binding tuples satisfying the WHERE clause must equal the row count
    of the translated main block on a shredded copy of the same
    document, whatever storage configuration was chosen. *)

val select : Legodb_xml.Xml.t -> string list -> Legodb_xml.Xml.t list
(** Child-axis path evaluation relative to a node (the node itself is
    not matched by the first step). *)

val path_values : Legodb_xml.Xml.t -> string list -> string list
(** Text contents of the elements (or values of the attributes) a path
    reaches from a node. *)

val count_bindings : Legodb_xml.Xml.t -> Xq_ast.t -> int
(** Number of FOR-binding tuples of the outer FLWR that satisfy the
    WHERE clause (existential semantics for multi-valued predicate
    paths).  Statements only: @raise Invalid_argument on a template's
    {!Xq_ast.O_param} (as does {!eval_strings}). *)

val eval_strings : Legodb_xml.Xml.t -> Xq_ast.t -> string list list
(** Full naive evaluation: one row of strings per satisfying binding
    tuple, containing the values of the scalar return paths (missing
    paths contribute nothing; nested FLWRs and published subtrees are
    skipped).  Useful for spot checks. *)
