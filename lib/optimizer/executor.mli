(** Execution of physical plans over the in-memory storage engine.

    A plan is compiled once ({!compile}) into closures over resolved
    slots and run any number of times ({!run}); the query server keeps
    one compiled plan per (snapshot, template).  Used by integration
    tests and examples to actually run translated workloads, and to
    sanity-check the cost model: [measures] reports the real work done
    (tuples scanned, index probes, bytes touched) so estimate
    {e orderings} can be compared against actual behaviour.  The
    interpreter this replaced is frozen in the test-only
    [Executor_reference]; the differential suite holds {!run} to its
    rows, their order and every [measures] field, bit for bit. *)

open Legodb_relational

type measures = {
  tuples_scanned : int;  (** rows fetched by sequential scans *)
  index_probes : int;
  join_tuples : int;  (** rows materialized by joins *)
  bytes_read : float;
  output_rows : int;
}

type compiled
(** A plan compiled against one store: every alias resolved to a
    tuple slot, every column to a row position, every index probe to
    its table's index ({!Storage.lookup}, staged) and every predicate
    and parameter slot to a closure.  Immutable: over a frozen store it
    can run from any number of domains at once, as the query server
    runs one per (snapshot, template). *)

val compile : Storage.t -> Physical.plan -> Logical.col list -> compiled
(** [compile db plan out] — the plan, projecting [out] ([\[\]]
    projects every column of every relation, in plan order).  Never
    raises: a name that does not resolve compiles to a reader that
    raises [Invalid_argument] when it is read, where the interpreter
    this replaced raised it. *)

val run :
  ?params:Rtype.value array -> compiled -> Rtype.value list list * measures
(** Evaluate bottom-up, left input before right, then project.
    [?params] (default empty) binds a template's plan: element [k] is
    read wherever the plan holds {!Logical.O_param}[ k] — in scan
    filters, join extras and as an index probe's key — so a plan
    compiled once per template runs for any constants, exactly as the
    statement's own plan would.  Counters live in one mutable record
    per run, so runs of one [compiled] never share state.
    @raise Invalid_argument if the plan references unknown tables,
    aliases or columns, or reads a slot [params] does not have (only
    when the slot is read). *)

val run_block :
  ?params:Rtype.value array ->
  Storage.t ->
  Physical.plan ->
  Logical.col list ->
  Rtype.value list list * measures
(** [run ?params (compile db plan out)]. *)

val run_query :
  Storage.t ->
  (Physical.plan * Logical.col list) list ->
  Rtype.value list list * measures
(** Run each block and concatenate results (outer-union semantics). *)
