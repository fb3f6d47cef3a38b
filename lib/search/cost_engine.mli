(** Incremental, per-query cost evaluation for the search loop.

    Every greedy/beam iteration costs every neighbor configuration, yet
    a single inline/outline step perturbs only a handful of tables and
    leaves most queries' plans untouched.  The engine exploits this:
    it memoizes each statement's optimizer cost under the key
    [(statement index, fingerprints of the tables it touches)], where
    the fingerprints come from {!Mapping.fingerprint_index}.  A cached
    cost is reused exactly when every table the statement reads or
    writes is structurally unchanged (columns, statistics, indexes,
    cardinality, and parents) — in which case the optimizer would
    recompute the identical float, so cached and cold costs are
    bit-identical: the cache is a pure memoization, not an
    approximation.

    The fingerprints anonymize type-name-derived identifiers, so
    structurally identical configurations reached by different
    transformation orders (which generate different fresh names) also
    hit. *)

exception Cost_error of string
(** Raised when a configuration cannot be costed (mapping or
    translation failure) — same meaning as {!Search.Cost_error}. *)

type fault = {
  stage : string;
      (** pipeline stage that failed: ["mapping"], ["translate"],
          ["optimize"], or ["inject"] *)
  exn_class : string;
      (** exception class: ["Mapping_error"], ["Untranslatable"],
          ["Cost_timeout"], or ["Injected"] — a stable name for fault
          accounting *)
  message : string;  (** the underlying error message *)
}
(** One candidate configuration the pipeline could not cost.
    {!cost_result} returns these; {!cost} folds them into
    {!Cost_error}.  Every fault is also counted in the snapshot. *)

type snapshot = {
  evaluations : int;  (** configurations costed (engine calls) *)
  hits : int;  (** statement costings answered from the cache *)
  misses : int;  (** statement costings computed by the optimizer *)
  faults : int;  (** configurations the pipeline failed to cost *)
  t_mapping : float;  (** seconds deriving relational catalogs *)
  t_translate : float;  (** seconds translating the workload *)
  t_optimize : float;  (** seconds in the relational optimizer *)
}

val empty_snapshot : snapshot

type t

val create :
  ?params:Legodb_optimizer.Cost.params ->
  ?workload_indexes:bool ->
  ?updates:(Legodb_xquery.Xq_ast.update * float) list ->
  ?memoize:bool ->
  ?oracle:bool ->
  ?inject:(string -> bool) ->
  ?per_query_timeout_ms:float ->
  ?clock:(unit -> float) ->
  workload:Legodb_xquery.Workload.t ->
  unit ->
  t
(** An engine for one fixed workload (and optional update mix).
    [~memoize:false] disables the cache — every statement is costed
    from scratch, which is the reference behaviour benchmarks compare
    against.  [~oracle:true] re-costs every cache hit from scratch and
    raises [Invalid_argument] if the cached float differs — the
    self-checking mode the equivalence tests run in.

    [?inject] is a deterministic fault-injection hook for testing the
    search's fault accounting: it receives
    [Legodb_xtype.Xschema.to_string] of each configuration {e before}
    any pipeline work, and returning [true] makes the costing fail
    with a fault of stage ["inject"].  Because the hook is a pure
    function of the configuration, an injected fault fires identically
    for every [~jobs] value and on every revisit — a search with
    injected faults must select exactly what a search with those
    candidates filtered out would.

    [?per_query_timeout_ms] bounds each {e statement} costing (the
    ROADMAP's per-query cost timeout).  The optimizer is not
    preemptible between [?check] polls, so the bound is enforced
    cooperatively: a statement whose costing overruns it makes the
    whole configuration fail with a fault of stage ["optimize"] and
    class ["Cost_timeout"], abandoning its remaining statements — a
    pathological query charges the budget one overrun, not the rest of
    the wall clock.  Unset (the default) means unbounded, preserving
    the bit-identical determinism guarantees; with a timeout set,
    which candidates fault can depend on machine speed.

    [?clock] (default [Unix.gettimeofday]) is the time source for the
    per-phase timers and the per-query timeout — injectable so tests
    drive the timeout deterministically with a fake clock. *)

(** Every costing entry point takes an optional [?check] hook, called
    once at entry before any work: a cooperative cancellation point.
    The search passes {!Budget.tick}, so an exhausted budget (or a
    tripped interrupt) raises {!Budget.Exhausted} out of the costing —
    including from inside in-flight parallel chunks, which notice at
    their next candidate and stop promptly. *)

val cost : ?check:(unit -> unit) -> t -> Legodb_xtype.Xschema.t -> float
(** Cost one configuration: derive the catalog, translate the
    workload, and sum per-statement costs, serving structurally
    unchanged statements from the cache.  Produces the same float as
    {!Search.pschema_cost} with the same arguments.
    @raise Cost_error when the configuration cannot be costed. *)

val cost_result :
  ?check:(unit -> unit) ->
  t ->
  Legodb_xtype.Xschema.t ->
  (float, fault) result
(** [cost] with failures as structured {!fault} records instead of a
    raised {!Cost_error}; the engine's fault counter is bumped either
    way. *)

val cost_opt :
  ?check:(unit -> unit) -> t -> Legodb_xtype.Xschema.t -> float option
(** [cost] with {!Cost_error} mapped to [None]. *)

(** {1 Worker shards}

    Parallel neighbor costing ({!Search.greedy} and friends with
    [~jobs] > 1) splits the engine into a {e read-mostly frozen view}
    plus per-worker private deltas.  During a fan-out the engine is
    {!freeze}-frozen: its memo table is read-only shared state that
    every worker probes lock-free, and each worker slot costs
    candidates through its own {!shard} — a view that reads the frozen
    cache and records new entries and counters privately.  At the
    iteration barrier {!merge} publishes the deltas back in
    worker-slot order (a deterministic order; first-wins on duplicate
    keys).

    Determinism: because the cache is pure memoization, a probed key's
    value — and therefore every candidate's cost — is bit-identical to
    a sequential run's whatever the scheduling, and the post-merge
    memo {e key set} is exactly the keys the candidate list probes, so
    the merged cache contents are scheduling-independent too.  Only
    the hit/miss {e split} (and the wall-clock timers, as always)
    depends on which worker happened to cost which chunk.

    Shards are cheap but not free; {!worker_shards} keeps a persistent
    pool of them on the engine, reused across iterations, strategies,
    and searches — {!merge} resets a shard instead of consuming it,
    and {!discard_shards} abandons a fan-out without publishing
    anything. *)

type shard

val shard : t -> shard
(** A fresh shard of [t].  Between creating a batch of shards and
    {!merge}-ing them, cost configurations only through the shards (or
    concurrently reading [t] via {!snapshot}); do not call {!cost} on
    [t] itself, which would write the shared cache under the readers.
    (Fan-outs that also {!freeze} the engine get that misuse detected
    instead of relying on discipline.) *)

val worker_shards : t -> int -> shard array
(** [worker_shards t n] — the engine's persistent worker shards,
    [max n 1] of them (slot-indexed, for {!Par.run_tasks}'s [~worker]
    argument).  Grown on demand, never shrunk; the same shard objects
    are returned on every call, so state {e not} yet published must be
    {!merge}d or {!discard_shards}-discarded before the next fan-out
    starts. *)

val freeze : t -> unit
(** Mark a parallel fan-out in flight: until {!merge} or
    {!discard_shards}, the engine is a read-mostly view and {!cost}
    (and friends) on [t] itself raise [Invalid_argument] — costing
    must go through the shards.  @raise Invalid_argument if already
    frozen. *)

val discard_shards : t -> unit
(** Abandon an in-flight fan-out wholesale: reset every pool shard
    (cache deltas {e and} counters are dropped, nothing reaches the
    engine) and un-freeze.  What the budget-exhausted iteration path
    uses so an abandoned iteration leaves the engine bit-identical to
    its barrier state. *)

val shard_cost :
  ?check:(unit -> unit) -> shard -> Legodb_xtype.Xschema.t -> float
(** {!cost} against the shard's view: hits come from the shard's own
    new entries or the shared cache; misses are recorded privately.
    @raise Cost_error when the configuration cannot be costed. *)

val shard_cost_result :
  ?check:(unit -> unit) ->
  shard ->
  Legodb_xtype.Xschema.t ->
  (float, fault) result
(** [shard_cost] with failures as structured {!fault} records. *)

val shard_snapshot : shard -> snapshot
(** The shard's private counters (zeroed again by {!merge}). *)

val merge : t -> shard list -> unit
(** Publish the shards' new cache entries and counters into the
    engine, in list order: entries already present (seeded by an
    earlier shard in the list) keep their first value — the floats are
    identical anyway — and counters are summed left to right.  The
    search passes the worker shards in slot order, so the publication
    order is deterministic even though each shard's contents depend on
    scheduling (see the section comment: the merged cache is
    scheduling-independent regardless).  Resets each merged shard so a
    double [merge] cannot double-count and pool shards are ready for
    the next fan-out; un-freezes the engine.
    @raise Invalid_argument on a shard of a different engine. *)

val snapshot : t -> snapshot
(** Cumulative counters since [create]. *)

(** {1 Cache persistence}

    A checkpoint can carry the memo table so a resumed search starts
    warm; because the cache is pure memoization, a warm and a cold
    resume return bit-identical results — only the hit/miss counters
    and timers differ. *)

val cache_entries : t -> (string * float) list
(** The memo table as (key, cost) pairs, sorted by key so the same
    engine state always serializes to the same bytes. *)

val seed_cache : t -> (string * float) list -> unit
(** Preload memo entries (e.g. from {!Checkpoint.state.cache}) into a
    fresh engine before resuming. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier] — per-phase deltas, e.g. one iteration's. *)

val hit_rate : snapshot -> float
(** Hits over lookups, in [0,1]; [0.] before any lookup. *)

val pp_snapshot : Format.formatter -> snapshot -> unit
