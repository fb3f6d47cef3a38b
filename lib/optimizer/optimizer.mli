(** Cost-based plan selection — the stand-in for the paper's
    Volcano-variant relational optimizer [12,16].

    For each SPJ block: selections are pushed to the scans, access
    paths (sequential scan vs. clustered/unclustered index probe) and
    join methods (hash join, index nested loops, nested loops) are
    chosen by estimated cost, and the join order is found with
    System-R-style dynamic programming over left-deep plans: every
    subset of the block's relations gets its cheapest plan, joining a
    smaller subset with one more base relation.  Splits that some join
    predicate spans are preferred; a subset no such split reaches is
    joined by cross product, so cross-product lefts such as
    [(a × c) ⋈ b] are in the plan space.  A greedy left-deep fallback
    kicks in beyond {!dp_limit} relations.  The final cost adds the
    cost of writing the result out, which is what makes publishing
    workloads sensitive to row widths. *)

open Legodb_relational

type result = {
  plan : Physical.plan;
  rows : float;  (** estimated result cardinality *)
  cost : Cost.t;  (** estimated cost, including result output *)
}

val dp_limit : int
(** Maximum number of relations optimized with exact DP (10). *)

type shared
(** The common-subexpression cache of one query's blocks: the sub-plans
    (base-table accesses and join subtrees) of the plans chosen so far,
    under canonical alias-free signatures interned as integers.  A
    signature is interned when a block registers its chosen plan, not
    while the block's candidates are costed. *)

val shared : unit -> shared
(** An empty cache. *)

val optimize_block :
  ?params:Cost.params -> ?shared:shared -> Rschema.t -> Logical.block -> result
(** @raise Invalid_argument on an ill-formed block (unknown tables or
    columns, empty relation list).

    [?shared] is the common-subexpression cache used by {!query_cost}:
    a sub-plan whose signature is already in the cache is charged CPU
    but no I/O (it was just computed by an earlier block of the same
    query and sits in the buffer pool — the sharing a
    multi-query-optimizing Volcano performs); every sub-plan of the
    chosen plan is added to the cache. *)

val query_cost :
  ?params:Cost.params -> Rschema.t -> Logical.query -> result list * float
(** Optimize every block with a fresh shared-access cache; the query's
    scalar cost is the sum of block costs. *)

val query_scalar_cost :
  ?params:Cost.params -> Rschema.t -> Logical.query -> float
(** The scalar of {!query_cost} without the plans — the per-query
    costing entry point the incremental cost engine memoizes.  A
    query's scalar cost is a pure function of the catalog entries of
    the tables its blocks reference. *)

val workload_cost :
  ?params:Cost.params -> Rschema.t -> (Logical.query * float) list -> float
(** Weighted sum of query costs — the objective minimized by the
    greedy search.  Equals folding {!query_scalar_cost} over the
    workload in order. *)

val write_cost :
  ?params:Cost.params -> Rschema.t -> Logical.update -> float
(** Cost of one translated update: for each write, the cost of the
    locating block (shared-access cache across the update's writes)
    plus, per affected row, one page write and the maintenance of every
    index on the table (a seek and a tuple of CPU each); updates in
    place touch one index. *)

val updates_cost :
  ?params:Cost.params -> Rschema.t -> (Logical.update * float) list -> float
(** Weighted sum of {!write_cost} over the update statements. *)

val mixed_workload_cost :
  ?params:Cost.params ->
  Rschema.t ->
  queries:(Logical.query * float) list ->
  updates:(Logical.update * float) list ->
  float
(** Weighted queries plus weighted updates — the objective for
    update-aware storage design (the paper's future-work extension).
    Equals [workload_cost + updates_cost]. *)
