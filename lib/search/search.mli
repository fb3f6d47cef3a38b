(** The greedy search of Algorithm 4.1.

    Each iteration evaluates every single-step transformation of the
    current p-schema ([ApplyTransformations]) with the relational
    optimizer ([GetPSchemaCost]) and moves to the cheapest neighbour,
    stopping when no step improves the cost (or when the improvement
    falls below a relative threshold, the optimization suggested in
    Section 5.2).

    All strategies evaluate configurations through {!Cost_engine}, so
    per-query costs are memoized across neighbours and iterations; the
    [engine] fields of {!trace_entry} and {!result} report how much
    work the cache saved.

    Every strategy also accepts [~jobs]: with [jobs > 1] (and an OCaml
    5 build — see {!Par}) the neighbors of an iteration are costed
    concurrently on [jobs] per-chunk engine shards, merged back in
    chunk order at the iteration barrier.  Candidates are always
    reduced sequentially in [Space.neighbors] order with the first-wins
    tie-break, so the selected schema, its cost, and the trace are
    bit-identical for every [jobs] value; only wall-clock time and the
    cache hit/miss counters vary (chunks cannot see each other's
    in-flight entries, so [jobs > 1] may record more misses).
    [~jobs:0] auto-detects one job per core; the default is [1].

    Every strategy also accepts [?budget] (see {!Budget}), making it
    an {e anytime} algorithm: when the budget trips — deadline,
    iteration cap, evaluation cap, or interrupt — the in-flight
    iteration is abandoned wholesale and the search returns the best
    configuration over the {e completed} iterations, with
    [result.stopped] naming the reason.  A search budgeted by
    iterations or evaluations returns exactly the same best-so-far
    prefix of the unbudgeted trace for every [jobs] value (see the
    determinism note in {!Budget}).

    Candidates the costing pipeline cannot price are no longer
    silently dropped: each one yields a {!failure} record (step,
    pipeline stage, exception class, message) in its iteration's
    {!trace_entry} and in [result.failures], and is counted in the
    engine snapshots. *)

open Legodb_xtype
open Legodb_transform

exception Cost_error of string
(** Raised when a configuration cannot be costed (mapping or
    translation failure) — indicates a schema outside the supported
    fragment.  The same exception as {!Cost_engine.Cost_error}. *)

val pschema_cost :
  ?params:Legodb_optimizer.Cost.params ->
  ?workload_indexes:bool ->
  ?updates:(Legodb_xquery.Xq_ast.update * float) list ->
  workload:Legodb_xquery.Workload.t ->
  Xschema.t ->
  float
(** [GetPSchemaCost]: derive the relational catalog and statistics,
    translate the workload, and return its weighted optimizer cost.
    By default only the keys and foreign keys the mapping generates are
    indexed (the paper's setting); [~workload_indexes:true] additionally
    grants an index on every column the workload compares to a constant,
    modelling a tuned installation.  [?updates] adds weighted update
    statements to the objective (Section 7's future-work extension):
    wider tables and deeper outlining both make writes more expensive,
    so update-heavy workloads pull the search toward fewer, narrower
    tables.

    Implemented as a one-shot uncached {!Cost_engine} — the engine is
    the canonical costing pipeline, and an engine created by
    {!Cost_engine.create} with the same arguments produces bit-identical
    floats. *)

(** {1 The parallel costing seam}

    With [jobs > 1] each iteration's candidates are split by
    {!chunk_list} into fine-grained chunks (several per worker,
    decoupled from [jobs]), self-scheduled onto {!Par}'s persistent
    worker pool, and costed on the engine's persistent per-worker
    shards against a frozen read-only memo view (see
    {!Cost_engine.worker_shards}); the shards publish back in
    worker-slot order at the iteration barrier.  The seam is
    instrumented: {!seam_stats} reports where fan-out wall clock went
    since the last {!seam_reset}. *)

val chunk_list : int -> 'a list -> 'a list list
(** [chunk_list n l] splits [l] into at most [n] contiguous chunks of
    near-equal length (sizes differ by at most one, longer chunks
    first), preserving order: concatenating the chunks yields [l].  A
    pure function of [(n, l)] — never of scheduling — which is what
    makes the parallel fan-out's bookkeeping deterministic.  [n <= 1]
    yields one chunk; an empty [l] yields no chunks. *)

type seam_stats = {
  s_fanouts : int;  (** parallel fan-outs (costing + prepare passes) *)
  s_t_fanout : float;  (** seconds inside [Par.run_tasks] *)
  s_t_merge : float;  (** seconds publishing shard deltas at barriers *)
  s_t_barrier_idle : float;
      (** seconds the fan-out caller idled at barriers behind
          stragglers — the skew the self-scheduling is there to keep
          small *)
}
(** Cumulative parallel-seam timings.  Process-wide and written by the
    domain driving a search; meaningful when one search runs at a
    time (the bench's situation).  Sequential runs ([jobs <= 1]) never
    touch it. *)

val seam_reset : unit -> unit
val seam_stats : unit -> seam_stats

type stopped =
  [ `Converged  (** no neighbor improves: the algorithm's own stop *)
  | `Deadline  (** wall-clock budget expired *)
  | `Iterations  (** iteration cap reached (budget or [max_iterations]) *)
  | `Cost_budget  (** evaluation budget spent *)
  | `Interrupted  (** {!Budget.interrupt} tripped, e.g. by [SIGINT] *) ]
(** Why the search returned: convergence, or the {!Budget.reason} that
    cut it short. *)

val stopped_string : stopped -> string
(** Stable lowercase name (["converged"], ["deadline"], …) for logs
    and JSON. *)

val pp_stopped : Format.formatter -> stopped -> unit

type failure = Checkpoint.failure = {
  f_iteration : int;  (** iteration (or beam level) that costed it *)
  f_step : Space.step;  (** the transformation that built the candidate *)
  f_stage : string;  (** pipeline stage, as {!Cost_engine.fault} *)
  f_class : string;  (** exception class, as {!Cost_engine.fault} *)
  f_message : string;
}
(** One candidate configuration the costing pipeline failed on.  The
    search skips the candidate (it cannot win the iteration) but
    records the failure instead of dropping it silently. *)

val pp_failure : Format.formatter -> failure -> unit

type trace_entry = Checkpoint.trace_entry = {
  iteration : int;
  cost : float;
  step : Space.step option;  (** [None] for the initial configuration *)
  tables : int;  (** size of the configuration's catalog *)
  engine : Cost_engine.snapshot;
      (** this iteration's engine work: configurations costed, cache
          hits/misses, faults, per-layer wall time (iteration 0 carries
          the initial configuration's evaluation) *)
  failures : failure list;
      (** candidates this iteration could not cost, in candidate
          order *)
}

type result = {
  schema : Xschema.t;  (** the selected configuration *)
  cost : float;
  trace : trace_entry list;  (** iteration 0 first *)
  engine : Cost_engine.snapshot;  (** whole-search engine totals *)
  stopped : stopped;  (** why the search returned *)
  failures : failure list;
      (** every uncostable candidate over the whole search, in
          iteration then candidate order (includes iterations whose
          trace entry was not kept) *)
}

val greedy :
  ?params:Legodb_optimizer.Cost.params ->
  ?workload_indexes:bool ->
  ?updates:(Legodb_xquery.Xq_ast.update * float) list ->
  ?kinds:Space.kind list ->
  ?threshold:float ->
  ?max_iterations:int ->
  ?jobs:int ->
  ?memoize:bool ->
  ?engine:Cost_engine.t ->
  ?budget:Budget.t ->
  ?checkpoint:string * int ->
  workload:Legodb_xquery.Workload.t ->
  Xschema.t ->
  result
(** Greedy descent from the given p-schema.  [kinds] defaults to
    {!Space.default_kinds} (inline/outline); [threshold] (default [0.])
    stops early when the relative improvement drops below it;
    [max_iterations] defaults to 200.  [~memoize:false] disables the
    cost cache (reference mode for benchmarks; results are identical
    either way).

    [?engine] reuses an existing {!Cost_engine.t} instead of creating a
    fresh one, so successive searches (a re-run after a workload tweak,
    a beam pass after a greedy pass) share one cache and hit on every
    configuration already costed.  The engine's own workload, updates
    and parameters apply; [?params], [?workload_indexes], [?updates]
    and [?memoize] are then ignored, and the caller must pass a
    [~workload] consistent with the engine's.  The [engine] fields of
    the result and trace report the {e delta} incurred by this search,
    so they compose with a shared engine.

    [?checkpoint:(path, every)] makes the search durable: a
    {!Checkpoint} snapshot of the barrier state is written atomically
    to [path] every [every] completed iterations and on {e every} stop
    — converged, budget exhausted, or interrupted — so a process
    killed mid-search (or stopped by [SIGINT], which the CLI turns
    into {!Budget.interrupt}) leaves a snapshot {!resume} can continue
    from. *)

val greedy_so :
  ?params:Legodb_optimizer.Cost.params ->
  ?workload_indexes:bool ->
  ?updates:(Legodb_xquery.Xq_ast.update * float) list ->
  ?kinds:Space.kind list ->
  ?threshold:float ->
  ?max_iterations:int ->
  ?jobs:int ->
  ?memoize:bool ->
  ?engine:Cost_engine.t ->
  ?budget:Budget.t ->
  ?checkpoint:string * int ->
  workload:Legodb_xquery.Workload.t ->
  Xschema.t ->
  result
(** The paper's [greedy-so]: start from the all-outlined configuration
    and explore inlining steps ([kinds] defaults to [[K_inline]]).
    All optional arguments are forwarded to {!greedy}. *)

val greedy_si :
  ?params:Legodb_optimizer.Cost.params ->
  ?workload_indexes:bool ->
  ?updates:(Legodb_xquery.Xq_ast.update * float) list ->
  ?kinds:Space.kind list ->
  ?threshold:float ->
  ?max_iterations:int ->
  ?jobs:int ->
  ?memoize:bool ->
  ?engine:Cost_engine.t ->
  ?budget:Budget.t ->
  ?checkpoint:string * int ->
  workload:Legodb_xquery.Workload.t ->
  Xschema.t ->
  result
(** The paper's [greedy-si]: start from the all-inlined configuration
    and explore outlining steps ([kinds] defaults to [[K_outline]]).
    All optional arguments are forwarded to {!greedy}. *)

val pp_trace : Format.formatter -> trace_entry list -> unit

val beam :
  ?params:Legodb_optimizer.Cost.params ->
  ?workload_indexes:bool ->
  ?updates:(Legodb_xquery.Xq_ast.update * float) list ->
  ?kinds:Space.kind list ->
  ?width:int ->
  ?patience:int ->
  ?max_iterations:int ->
  ?jobs:int ->
  ?memoize:bool ->
  ?engine:Cost_engine.t ->
  ?budget:Budget.t ->
  ?checkpoint:string * int ->
  workload:Legodb_xquery.Workload.t ->
  Xschema.t ->
  result
(** Beam search over transformation sequences (the "dynamic programming
    search strategies" of Section 7's future work): keeps the [width]
    (default 4) cheapest {e distinct} configurations per level —
    distinctness judged by {!Mapping.catalog_fingerprint}, which is
    independent of the fresh type names a step order generates — and
    can therefore cross small cost hills the greedy descent cannot (it
    stops after [patience] levels without improvement, default 3).
    Returns the best configuration seen. *)

val resume :
  ?params:Legodb_optimizer.Cost.params ->
  ?workload_indexes:bool ->
  ?updates:(Legodb_xquery.Xq_ast.update * float) list ->
  ?jobs:int ->
  ?memoize:bool ->
  ?engine:Cost_engine.t ->
  ?budget:Budget.t ->
  ?checkpoint:string * int ->
  ?max_iterations:int ->
  ?warm:bool ->
  workload:Legodb_xquery.Workload.t ->
  string ->
  result
(** Continue an interrupted search from a {!Checkpoint} snapshot file.
    The snapshot supplies the state and the search identity — strategy,
    transformation kinds, threshold / width / patience, iteration and
    trace so far, and the budget ticket count ({!Budget.charge}d into
    the fresh budget so a cumulative evaluation cap trips at the same
    candidate) — while the caller re-supplies the {e inputs}: the
    workload, updates, cost-model parameters, and fresh budget, which
    must match the original run's for the bit-identity guarantee to
    hold.  Because a snapshot always captures an iteration barrier and
    abandoned iterations record nothing, stopping at any point and
    resuming yields bit-identical cost, schema, trace, and failures to
    the uninterrupted run, for every strategy and every [~jobs] value.

    [~warm] (default [true]) seeds the engine's memo table from the
    snapshot; [~warm:false] starts cold — results are bit-identical
    either way, only the hit/miss counters and wall time differ.
    [?max_iterations] overrides the snapshot's cap (e.g. to let a run
    stopped by [`Iterations] continue); [?checkpoint] keeps the resumed
    run checkpointing, typically to the same path.

    @raise Checkpoint.Corrupt if the file fails validation (bad magic,
    version, length, checksum, or payload) — a corrupt snapshot is an
    error, never a silent restart. *)
