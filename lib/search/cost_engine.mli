(** Incremental, per-query cost evaluation for the search loop.

    Every greedy/beam iteration costs every neighbor configuration, yet
    a single inline/outline step perturbs only a handful of tables and
    leaves most queries' plans untouched.  The engine exploits this:
    it memoizes each statement's optimizer cost under the key
    [(statement kind and index, fingerprints of the tables it
    touches)], where the fingerprints are {!Mapping.fingerprints}
    — exact bytes, framed as {!Mapping.frame_string} frames the key
    itself.  A cached cost is reused exactly when every table the
    statement reads or writes is structurally unchanged (columns,
    statistics, indexes, cardinality, and parents) — in which case the
    optimizer would recompute the identical float, so cached and cold
    costs are bit-identical: the cache is a pure memoization, not an
    approximation.

    The fingerprints anonymize type-name-derived identifiers, so
    structurally identical configurations reached by different
    transformation orders (which generate different fresh names) also
    hit.

    A candidate is mapped and fingerprinted once: {!prepare} does both
    and derives the catalog fingerprint {!Search.beam} deduplicates on,
    and {!price} costs the prepared candidate without mapping it again.
    The schema-taking entry points ({!cost} and friends) are
    {!prepare} then {!price}.  A candidate prepared from
    its parent's {!priced} state keeps every item the parent derived
    whose reads answer the same (see "Prepared candidates"); the
    snapshot's fields, the memo keys and every cost are the same as
    without a parent, only the timers move. *)

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
  t_mapping : float;
      (** seconds deriving relational catalogs and fingerprinting them
          (the {!prepare} step), and with [~workload_indexes]
          fingerprinting the indexed catalog too *)
  t_translate : float;  (** seconds translating the workload *)
  t_optimize : float;  (** seconds in the relational optimizer *)
}

val empty_snapshot : snapshot

type t
(** An engine, or a worker shard of one ({!worker_shards}): views that
    share the workload, the parameters and the memo table, each with
    its own new memo entries and counters.  Every entry point below
    takes either. *)

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
    once at entry before any work ({!price}: before any work
    beyond the preparing): a cooperative cancellation point.
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
    raised {!Cost_error}; the view's fault counter is bumped either
    way. *)

val cost_opt :
  ?check:(unit -> unit) -> t -> Legodb_xtype.Xschema.t -> float option
(** [cost] with {!Cost_error} mapped to [None]. *)

(** {1 Prepared candidates}

    A search moves by one rewriting at a time, and a neighbour keeps
    most of what its parent configuration derived: a {!priced}
    candidate carries its mapping, fingerprints, translations and memo
    keys, and a neighbour {!prepare}d from it takes each item whose
    reads are unchanged ({!Legodb_mapping.Mapping.derive},
    {!Legodb_mapping.Mapping.fingerprints},
    {!Legodb_mapping.Xq_translate.derive}) and derives the rest.  The
    items taken equal those derived afresh, so costs, memo keys, hits
    and misses are the same with or without a parent; oracle mode
    derives every candidate with a parent afresh too and raises
    [Invalid_argument] on any difference. *)

type prepared
(** A candidate mapped and fingerprinted once.  Preparing never fails:
    an unmappable schema carries its mapping errors, which costing it
    reports as the same ["mapping"] fault {!cost_result} would. *)

type priced
(** A costed candidate's derived state; immutable, so workers may
    prepare neighbours from one concurrently. *)

val priced_cost : priced -> float
(** The candidate's cost. *)

val prepare : ?parent:priced -> t -> Legodb_xtype.Xschema.t -> prepared
(** Map the schema, fingerprint every table and derive the catalog
    fingerprint, charging the time to the view's [t_mapping]; from
    [parent]'s state when the schema is one rewriting from [parent]'s
    (any schema is correct, only slower to prepare).
    @raise Invalid_argument on a frozen engine (not on its shards). *)

val fingerprint : prepared -> string
(** The {!Mapping.catalog_fingerprint} of the prepared catalog; for an
    unmappable schema, its {!Legodb_xtype.Xschema.to_string} under a
    tag byte no catalog fingerprint starts with. *)

val fingerprint_hash : prepared -> int
(** [Hashtbl.hash (fingerprint p)], taken once when preparing. *)

val price : ?check:(unit -> unit) -> t -> prepared -> (priced, fault) result
(** Cost a prepared candidate, reusing its mapping and, without
    [~workload_indexes], its table fingerprints (with it, the indexed
    catalog the optimizer sees is fingerprinted), and return the
    priced state its neighbours are prepared from.  {!cost_result} is
    [prepare] then [price]: counts, cache traffic and the float are
    the same either way. *)

val price_schema :
  ?check:(unit -> unit) ->
  ?parent:priced ->
  t ->
  Legodb_xtype.Xschema.t ->
  (priced, fault) result
(** {!cost_result} with a parent: [check], then {!prepare} and
    {!price}. *)

(** {1 Worker shards}

    Every search pass ({!Search.greedy}'s neighbour pricing,
    {!Search.beam}'s prepare and price passes) runs on worker shards,
    at every [~jobs], one included.  A shard probes its own new entries
    and then the engine's memo table, and records what it computes and
    counts privately.  During a pass the engine is {!freeze}-frozen:
    the memo table is read-only shared state that every worker probes
    lock-free, and costing through the engine itself raises.  At the
    pass's barrier {!merge} publishes the shards in worker-slot order
    (a deterministic order; first-wins on duplicate keys).  A pass
    that raises (an exhausted budget) ends in {!discard_shards}
    instead: it publishes nothing, so an abandoned pass leaves the
    engine at its barrier state whatever [~jobs].

    Determinism: because the cache is pure memoization, a probed key's
    value — and therefore every candidate's cost — is the same whatever
    the scheduling, and the post-merge memo {e key set} is exactly the
    keys the candidate list probes, so the merged cache contents are
    scheduling-independent too.  Only the hit/miss {e split} (and the
    wall-clock timers, as always) depends on which worker happened to
    cost which chunk; with one worker it is the split of pricing the
    candidates in order on the engine itself. *)

val worker_shards : t -> int -> t array
(** [worker_shards t n] — the engine's persistent worker shards,
    [max n 1] of them (slot-indexed, for {!Par.run_tasks}'s [~worker]
    argument).  Grown on demand, never shrunk; the same shard objects
    are returned on every call, so state {e not} yet published must be
    {!merge}d or {!discard_shards}-discarded before the next pass
    starts. *)

val freeze : t -> unit
(** Mark a pass in flight: until {!merge} or {!discard_shards}, the
    engine's own entry points raise [Invalid_argument] — costing must
    go through the shards.  @raise Invalid_argument if already
    frozen. *)

val discard_shards : t -> unit
(** Abandon a pass wholesale: reset every pool shard (cache deltas
    {e and} counters are dropped, nothing reaches the engine) and
    un-freeze. *)

val merge : t -> t list -> unit
(** Publish the shards' new cache entries and counters into the
    engine, in list order: entries already present (seeded by an
    earlier shard in the list) keep their first value — the floats are
    identical anyway — and counters are summed left to right.  Resets
    each merged shard, so a double [merge] cannot double-count and pool
    shards are ready for the next pass; un-freezes the engine.
    @raise Invalid_argument unless the first argument is an engine and
    every shard is one of its worker shards, before anything is merged:
    the engine's cache, counters and frozen state are left as they
    were. *)

val snapshot : t -> snapshot
(** The view's counters: an engine's since [create]; a shard's since
    its last {!merge} or {!discard_shards}. *)

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
