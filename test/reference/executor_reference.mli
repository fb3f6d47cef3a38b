(** Frozen pre-compilation plan interpreter — the executable
    specification {!Legodb_optimizer.Executor} must match: same rows,
    same order, bit-identical [measures].  Test-only; production code
    runs {!Legodb_optimizer.Executor}.

    The original interface follows.

    Interpretation of physical plans over the in-memory storage engine.

    Used by integration tests and examples to actually run translated
    workloads, and to sanity-check the cost model: [measures] reports
    the real work done (tuples scanned, index probes, bytes touched) so
    estimate {e orderings} can be compared against actual behaviour. *)

open Legodb_relational
open Legodb_optimizer

type measures = {
  tuples_scanned : int;  (** rows fetched by sequential scans *)
  index_probes : int;
  join_tuples : int;  (** rows materialized by joins *)
  bytes_read : float;
  output_rows : int;
}

val run_block :
  ?params:Rtype.value array ->
  Storage.t ->
  Physical.plan ->
  Logical.col list ->
  Rtype.value list list * measures
(** Evaluate a plan bottom-up, then project ([\[\]] projects every
    column of every relation, in plan order).  [?params] (default
    empty) binds a template's plan: element [k] is read wherever the
    plan holds {!Logical.O_param}[ k] — in scan filters, join extras and
    as an index probe's key — so a plan compiled once per template runs
    for any constants, exactly as the statement's own plan would.
    @raise Invalid_argument if the plan references unknown tables or
    columns, or a slot [params] does not have. *)

val run_query :
  Storage.t ->
  (Physical.plan * Logical.col list) list ->
  Rtype.value list list * measures
(** Run each block and concatenate results (outer-union semantics). *)
