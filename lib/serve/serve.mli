(** [legodb serve]: a concurrent query server over frozen storage
    snapshots — the front door the ROADMAP's "serve the winning
    design" item asks for.

    {2 Snapshot lifecycle}

    The server owns two stores derived from one {!Legodb_mapping}
    configuration:

    - a mutable {e working} store that {!append}-ed documents are
      shredded into, and
    - an immutable {e serving snapshot} ({!Legodb_relational.Storage.freeze}
      of the working store): alias-free, statistics matching its
      contents, and rejecting writes — which is what makes it safe to
      read from any number of domains with no locking at all.

    Reads never block writes and vice versa: requests execute against
    the snapshot that was current when they (or their batch) started,
    while appends mutate only the working store.  {!publish} is the
    batched-append barrier: it freezes the working store into a fresh
    snapshot and atomically swaps it in; in-flight requests keep their
    old snapshot (it stays valid forever — nothing can mutate it),
    later requests see the new one.

    {2 Compiled-plan cache}

    Translating a request and join-ordering its blocks costs orders of
    magnitude more than executing a selective plan, so the server plans
    once per statement {e template}, as a prepared-statement engine
    does.  {!Legodb_xquery.Xq_ast.lift} turns a request's WHERE
    constants into parameter slots; the lifted body (structural, so
    name-independent) keys a table of translations, and each snapshot
    keeps one compiled plan per template: its blocks planned on the
    snapshot's statistics and compiled against the snapshot's rows
    ({!Legodb_optimizer.Executor.compile}), so aliases, columns and
    index probes are resolved once per (snapshot, template), not per
    request.  The constants are bound when the compiled plan runs
    ({!Legodb_optimizer.Executor.run}[ ~params]); compiled plans are
    immutable closures over the frozen snapshot, so a batch's workers
    run them concurrently.

    Constants stay out of the key because no planning step reads them:
    the XQuery fragment compares by equality only, translation never
    looks at a constant's value, the estimator sees an equality
    constant only through the column's [distinct] count, and plans are
    compiled without cross-block sharing.  So the template's plan is
    the plan each of its statements would get, and a request's answer
    equals [~use_cache:false]'s whatever was served before it — the
    constant's kind ([1990] against ["1990"]) travels in the parameter
    vector, not in the key.

    The template table holds at most 4096 templates and is never
    flushed: a statement whose template does not fit is compiled like
    [~use_cache:false] (and counted as a miss) while the templates
    already in keep hitting.  A {!publish} drops the old snapshot's
    plans with it; each template recompiles once, on first use, under
    the new statistics.

    Statements that arrive as text ({!run_texts}) reach their template
    without being parsed when their {e shape} is known.  In front of
    the lifted-body table sits a table from shape key
    ({!Legodb_xquery.Xq_parse.shape}: the text with its WHERE
    constants masked, from one lexer pass) to template.  On a hit the
    request is never parsed or lifted and its body never hashed: one
    lock acquisition finds the template and its plans, and the
    constants the lexer lifted are bound.  On a miss the text is
    parsed and lifted and goes through the lifted-body table, and its
    key is recorded when the template fit and the lexer's constants
    equal the lifted ones.  Equal keys lift to equal bodies, so a key
    names one template; two spellings of one statement (spacing,
    keyword case) may take two keys, never a second translation or
    compile.  The shape table holds at most 4096 keys and 1 MiB of key
    bytes and is never flushed either: a text whose shape does not fit
    takes the parse path.

    {2 Concurrency}

    {!run_batch} and {!run_texts} fan a batch out on
    {!Legodb_search.Par.run_tasks}'s persistent domain pool (sequential
    on an OCaml 4.14 build — same answers, no overlap).  Shared mutable
    state (template and shape tables, the snapshot's plans, counters,
    working store) is guarded by one lock;
    execution — the bulk of a request — runs lock-free against the
    immutable snapshot.

    {2 Durability}

    With a [?data_dir], the server is crash-safe ({!Wal}): every
    {!append} is captured — the exact rows it shredded — in a
    checksummed write-ahead log record and fsynced before the append
    returns, and every {!publish} atomically rewrites the directory's
    storage snapshot and truncates the log.  {!recover} rebuilds a
    server from the directory: latest valid snapshot, plus the log
    suffix replayed as {e pending} appends — pending, because they were
    never published, so the recovered server answers queries
    bit-identically to one that never crashed.  A torn log tail (the
    only artifact a crash can leave, since each record is one [write])
    is truncated and reported; real corruption raises {!Wal.Corrupt}
    and the CLI exits with code 8. *)

open Legodb_relational
open Legodb_xquery

type t

type reply = {
  rows : Rtype.value list list;
      (** the request's answer rows: every block's projected tuples, in
          block then row order (what {!Legodb_optimizer.Executor.run_query}
          returns) *)
  cached : bool;  (** the physical plans came from the plan cache *)
  latency_s : float;  (** compile (or cache probe) + execute seconds *)
}

type stats = {
  served : int;  (** requests answered (cache-bypassing ones included) *)
  cache_hits : int;
      (** requests that ran plans from the plan cache, one whose worker
          compiled them but another worker stored them first included:
          the count does not depend on scheduling *)
  cache_misses : int;
      (** compilations performed: one per (snapshot, template) plus one
          per request over the template cap *)
  snapshot_rows : int;  (** total rows of the current serving snapshot *)
  snapshots_published : int;  (** {!publish} barriers, initial freeze excluded *)
  pending_appends : int;  (** documents appended since the last publish *)
  wal_appends : int;  (** appends acknowledged durably ({!Wal.stats}) *)
  wal_fsyncs : int;  (** append-path fsyncs — [wal_fsyncs /. wal_appends]
                         is what group commit drives below 1.0 *)
  wal_groups : int;  (** commit units written *)
  wal_max_group : int;  (** largest group one fsync acknowledged *)
  batches : int;  (** {!run_batch} and {!run_texts} calls *)
  max_batch : int;  (** largest batch one call fanned out *)
}
(** The four [wal_*] counters are all zero when durability is off. *)

val create :
  ?jobs:int ->
  ?params:Legodb_optimizer.Cost.params ->
  ?clock:(unit -> float) ->
  ?data_dir:string ->
  ?fs:Legodb_wire.Wire.fs ->
  Legodb_mapping.Mapping.t ->
  Storage.t ->
  t
(** Stand a server up over a loaded store (typically
    {!Legodb_mapping.Shred.shred}'s result).  The store becomes the
    server's working store — the caller must stop using it — and its
    frozen copy becomes the first serving snapshot.  [?jobs] sizes
    {!run_batch}'s parallelism ([0] or unset = one per core); the
    worker pool is pre-spawned here, outside any timed region.
    [?params] are the cost-model weights plans are compiled under
    (default {!Legodb_optimizer.Cost.default_params}, the paper's
    disk-resident calibration); a purely in-memory server should pass
    weights with cheap seeks so selective requests compile to index
    probes rather than scans.  [?clock] (default [Unix.gettimeofday])
    times requests and drives {!run_batch}'s deadlines — injectable so
    timeout tests are deterministic.  [?data_dir] turns durability on:
    the directory is created if missing, seeded with an initial
    snapshot of the store, and a fresh write-ahead log is opened
    ([?fs] is the injectable I/O layer the fault tests crash).
    @raise Invalid_argument if the store is itself a frozen snapshot,
    or if [data_dir] already holds a snapshot (that store wants
    {!recover}, not a fresh server clobbering it). *)

val jobs : t -> int

val snapshot : t -> Storage.t
(** The current serving snapshot (frozen; safe to hold and read
    concurrently — it never changes, later {!publish}es swap in fresh
    ones). *)

val query : ?use_cache:bool -> t -> Xq_ast.t -> reply
(** Answer one request against the current snapshot: translate (or hit
    the plan cache), execute, reply.  [~use_cache:false] compiles
    fresh without reading or writing the cache or its counters — the
    reference path benchmarks and differential tests compare against.
    @raise Legodb_mapping.Xq_translate.Untranslatable on a request
    outside the supported fragment. *)

val run_batch :
  ?timeout_ms:int -> t -> Xq_ast.t array -> (reply, string) result array
(** Answer a batch of requests, overlapped on the domain pool (at most
    {!jobs} at a time), all against the {e same} snapshot — the one
    current when the batch started; a concurrent {!publish} does not
    tear a batch.  Result [i] answers request [i].  A request the
    parser or the translator rejects yields [Error message] for its
    slot ([Error "query parse error at offset N: ..."] or
    [Error "untranslatable: ..."]) — a bad request never takes the
    server (or its batch) down.  [?timeout_ms]
    gives each request its own wall-clock budget (measured by the
    server's clock from that request's start): a request over budget
    degrades to an [Error "timeout: ..."] slot at the next plan-block
    boundary — cooperative, so a block in progress finishes first —
    while the rest of the batch answers normally. *)

(** What an [Error] slot's text says went wrong. *)
type error_kind =
  | Parse_failure  (** ["query parse error at offset N: ..."] *)
  | Untranslation  (** ["untranslatable: ..."] *)
  | Other_failure  (** a timeout, or any other text *)

val error_kind : string -> error_kind
(** The kind of an [Error] slot's text, as {!run_batch} and
    {!run_texts} write it — and as a network client receives it. *)

val run_texts :
  ?timeout_ms:int -> t -> string array -> (reply, string) result array
(** {!run_batch} over query texts, with its contract: the same batch
    loop, snapshot and error slots; only how a request finds its
    template differs (by shape key first, see "Compiled-plan cache").
    Each text answers exactly as {!Legodb_xquery.Xq_parse.parse}
    [~name:"net"] then {!run_batch} would: a text that does not parse
    yields [Error "query parse error at offset N: message"], and the
    statement name ["net"] is the one untranslatable messages quote.
    This is the network front door's entry point ({!Net}). *)

val append : t -> Legodb_xml.Xml.t -> unit
(** Shred one document into the working store.  Invisible to readers
    until the next {!publish}.  With durability on, the append is
    staged and flushed as its own commit unit — one fsync — before
    returning (the PR 8 fsync-per-append discipline).
    @raise Legodb_mapping.Shred.Shred_error when the document does not
    fit the configuration's schema (the working store may then hold a
    partial document — as with {!Legodb_mapping.Shred.shred_into}). *)

val append_group : t -> Legodb_xml.Xml.t list -> (unit, string) result list
(** Shred a batch of documents as one {e group commit}: every
    document's rows are staged in the WAL's open group, then a single
    flush — one [write], one [fsync] — acknowledges them all, so the
    device's sync latency is paid once per group instead of once per
    document.  None of the group is durable (and nothing is reported
    [Ok]) until that fsync returns; a crash mid-group loses the whole
    group, which is exactly what the callers were told.  Slot [i]
    answers document [i]: a document the shredder rejects yields
    [Error message] (its partial rows are logged, same as {!append})
    and never poisons its neighbors' slots.  [append_group t [d]] is
    {!append} with the error reified; [append_group t []] is a no-op
    ([[]], no fsync). *)

val publish : t -> unit
(** The batched-append barrier: freeze the working store (statistics
    refreshed) into a fresh snapshot and swap it in for subsequent
    requests.  Compiled plans belong to the snapshot, so they are
    dropped with the old one: each template recompiles once, on its
    next request, under the new statistics (translations are kept). *)

val stats : t -> stats

(** {1 Recovery} *)

type recovery = {
  r_snapshot_rows : int;  (** rows the snapshot alone restored *)
  r_snapshot_seq : int;  (** last append the snapshot covers *)
  r_replayed : int;  (** log records re-applied, as pending appends *)
  r_skipped : int;
      (** log records the snapshot already covered (a crash between the
          snapshot rename and the log truncation leaves them behind;
          sequence numbers make the skip exact — nothing is ever
          applied twice) *)
  r_recovered_seq : int;  (** last append now recovered, durably *)
  r_torn : string option;
      (** why the log's tail was dropped, if it was: the signature of a
          crash mid-record (that append was never acknowledged) *)
  r_dropped_bytes : int;  (** size of the torn tail, 0 if none *)
}

val recover :
  ?jobs:int ->
  ?params:Legodb_optimizer.Cost.params ->
  ?clock:(unit -> float) ->
  ?fs:Legodb_wire.Wire.fs ->
  ?mapping:Legodb_mapping.Mapping.t ->
  dir:string ->
  unit ->
  t * recovery
(** Rebuild a server from a data directory: load the snapshot (the
    p-schema it carries rebuilds the mapping and catalog; pass
    [?mapping] to override when the original catalog had extras — e.g.
    secondary indexes {!Legodb_mapping.Mapping.of_pschema} does not
    derive), replay the log's suffix as pending appends, truncate any
    torn tail, and reopen the log for appending.  The serving snapshot
    is the {e published} state — replayed appends stay pending until
    the next {!publish} — so recovered answers are bit-identical to a
    never-crashed server's.
    @raise Wal.Corrupt on a corrupted snapshot or log (CLI exit 8)
    @raise Sys_error when the directory or snapshot is missing. *)

val data_dir : t -> string option
(** The directory this server persists to, if durability is on. *)

val pp_recovery : Format.formatter -> recovery -> unit

(** {1 Latency accounting} *)

type summary = {
  n : int;
  wall_s : float;
  qps : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
}

val summarize : wall_s:float -> float array -> summary
(** Percentiles (nearest-rank, in milliseconds) of a batch's
    per-request latencies plus throughput over the batch wall clock.
    Zero requests yield zero percentiles and QPS. *)

val pp_summary : Format.formatter -> summary -> unit
val pp_stats : Format.formatter -> stats -> unit
