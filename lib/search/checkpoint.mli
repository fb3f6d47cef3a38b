(** Durable snapshots of the anytime search (ROADMAP's checkpoint/resume
    item): the frontier, the best-so-far configuration, the trace, the
    budget's ticket count, and (optionally) the {!Cost_engine} memo
    table, serialized so an interrupted ([stopped <> `Converged]) search
    can continue in a later {e process} instead of restarting from the
    initial configuration.

    {b What a snapshot captures.}  Search state is stored as data, never
    as closures: configurations are p-schema terms (an exact structural
    codec for {!Xschema.t}, statistics annotations included, so a
    decoded configuration costs bit-identically to the original — the
    [%.0f]-rounded {!Xschema.pp_with_stats} notation is deliberately
    {e not} used), steps are {!Space.step} terms, and counters are ints.
    What is {e not} captured: the workload, the cost-model parameters,
    and the budget limits — the caller supplies those again on resume
    (they are inputs of the search, not state of it), and
    {!Search.resume} continues through the same iteration barrier the
    snapshot was taken at.

    {b Wire format.}  A snapshot file is one header line

    {v LEGODB-CKPT <version> <crc32-hex> <payload-bytes> v}

    followed by exactly [<payload-bytes>] of payload.  This build
    writes and reads version 2: version 1 persisted beam's seen set and
    the memo keys as text fingerprints, which never equal today's byte
    fingerprints, so a version-1 file is refused rather than resumed
    into a search that would re-keep configurations it had
    blacklisted.  The payload is a
    portable line/length-prefixed text encoding (floats travel as [%h]
    hex literals, so costs and statistics round-trip bit-exactly); the
    CRC-32 (IEEE) of the payload guards against torn or corrupted
    files.  The encoding contains nothing OCaml-version-specific — no
    [Marshal] — so a snapshot written by a 4.14 build resumes under 5.x
    and vice versa.  {!save} writes atomically (tmp file + rename), so
    a crash mid-write leaves either the old snapshot or none. *)

open Legodb_xtype
open Legodb_transform

exception Corrupt of string
(** The file is not a usable snapshot.  The message is a single line
    naming the defect — bad magic, unsupported version, truncation,
    checksum mismatch, or a malformed payload — and the CLI maps the
    exception to exit code 7.  A corrupt snapshot is never silently
    treated as "start from scratch". *)

type failure = {
  f_iteration : int;
  f_step : Space.step;
  f_stage : string;
  f_class : string;
  f_message : string;
}
(** One candidate the costing pipeline failed on; the canonical type
    behind {!Search.failure} (re-exported there). *)

type trace_entry = {
  iteration : int;
  cost : float;
  step : Space.step option;
  tables : int;
  engine : Cost_engine.snapshot;
  failures : failure list;
}
(** One completed iteration; the canonical type behind
    {!Search.trace_entry} (re-exported there). *)

type point =
  | Greedy of { g_schema : Xschema.t; g_cost : float; g_threshold : float }
      (** greedy descent: the current configuration and its cost *)
  | Beam of {
      b_frontier : (Xschema.t * float) list;  (** kept configs, in order *)
      b_best_schema : Xschema.t;
      b_best_cost : float;
      b_seen : string list;  (** blacklisted catalog fingerprints *)
      b_barren : int;  (** levels since the last improvement *)
      b_width : int;
      b_patience : int;
    }  (** beam search: the whole frontier plus the best-so-far *)

type state = {
  strategy : string;
      (** ["greedy"], ["greedy_so"], ["greedy_si"], or ["beam"] — the
          strategy identity; {!Search.resume} dispatches on it *)
  kinds : Space.kind list;  (** transformation kinds being explored *)
  max_iterations : int;
  iteration : int;  (** completed iterations (beam levels) *)
  evaluations : int;
      (** budget tickets drawn by the completed iterations — the value
          at the snapshot's barrier, {e excluding} any tickets a later
          abandoned iteration drew, so a resumed evaluation budget trips
          at exactly the same candidate as an uninterrupted run's *)
  trace : trace_entry list;  (** iteration 0 first *)
  failures : failure list;  (** iteration then candidate order *)
  point : point;
  cache : (string * float) list;
      (** {!Cost_engine} memo entries for a warm resume; [[]] means a
          cold resume recomputes them (bit-identical either way — the
          cache is pure memoization) *)
}

val save : path:string -> state -> unit
(** Serialize and write atomically and durably
    ({!Legodb_wire.Wire.write_atomic}): the snapshot is written to
    [path ^ ".tmp"], fsynced, renamed over [path], and the parent
    directory is fsynced — so readers never observe a half-written
    file, and a completed save survives power loss, not just process
    death.  @raise Sys_error / [Unix.Unix_error] on I/O failure. *)

val load : string -> state
(** Read and validate a snapshot: magic, version, payload length, and
    CRC are checked before any decoding.  @raise Corrupt (see above)
    and [Sys_error] if the file cannot be read. *)

val encode : state -> string
(** The full file image ({!save} without the I/O): header line plus
    checksummed payload. *)

val decode : string -> state
(** Inverse of {!encode}.  @raise Corrupt *)

val equal : state -> state -> bool
(** Structural equality, statistics annotations and float bit-patterns
    included — the property the codec round-trip tests assert. *)

val crc32 : string -> int32
(** CRC-32 (IEEE 802.3) of a string; exposed so tests can forge headers
    with valid checksums.  (Alias of {!Legodb_wire.Wire.crc32}.) *)

(** {1 Schema codec}

    The exact structural p-schema codec (statistics annotations
    included), exported so other durable artifacts — the query server's
    storage snapshot — embed configurations with the same
    bit-exactness.  Unlike {!load}/{!decode}, these raise
    {!Legodb_wire.Wire.Corrupt}, which the embedding artifact wraps in
    its own error. *)

val write_schema : Buffer.t -> Xschema.t -> unit
val read_schema : Legodb_wire.Wire.cursor -> Xschema.t

