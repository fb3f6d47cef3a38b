(** Frozen pre-rewrite plan selection — the executable specification
    that the mask-indexed {!Optimizer} must match bit for bit.

    Same public surface as {!Optimizer}; every function returns the
    exact floats the optimizer returned before the fast-path rewrite
    (alias lists, recursive plan signatures, [List.init (2^n)] mask
    enumeration).  Used only by the differential test suite and
    [bench optimizer_perf]; production code routes through
    {!Optimizer}. *)

open Legodb_relational
open Legodb_optimizer

type result = {
  plan : Physical.plan;
  rows : float;  (** estimated result cardinality *)
  cost : Cost.t;  (** estimated cost, including result output *)
}

val dp_limit : int
(** Maximum number of relations optimized with exact DP (10). *)

val optimize_block :
  ?params:Cost.params ->
  ?shared:(string, unit) Hashtbl.t ->
  Rschema.t ->
  Logical.block ->
  result
(** @raise Invalid_argument on an ill-formed block (unknown tables or
    columns, empty relation list).

    [?shared] is the common-subexpression cache used by {!query_cost}:
    a base-table access whose signature is already in the cache is
    charged CPU but no I/O (the table was just read by an earlier block
    of the same query and sits in the buffer pool — the sharing a
    multi-query-optimizing Volcano performs); the accesses of the
    chosen plan are added to the cache. *)

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
