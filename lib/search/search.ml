open Legodb_xtype
open Legodb_transform
module Mapping = Legodb_mapping.Mapping

exception Cost_error = Cost_engine.Cost_error

(* GetPSchemaCost delegates to a one-shot engine: Cost_engine is the
   canonical mapping → translate → optimize pipeline, and keeping a
   second copy here was a drift hazard (the engine's docs promise the
   two agree bit for bit). *)
let pschema_cost ?params ?workload_indexes ?updates ~workload schema =
  let eng =
    Cost_engine.create ?params ?workload_indexes ?updates ~memoize:false
      ~workload ()
  in
  Cost_engine.cost eng schema

(* ------------------------------------------------------------------ *)
(* parallel neighbor costing                                           *)
(* ------------------------------------------------------------------ *)

(* [~jobs:0] means "one per core" *)
let resolve_jobs jobs = if jobs <= 0 then Par.default_jobs () else jobs

(* split [l] into at most [n] contiguous chunks of near-equal length,
   preserving order — the chunking is a pure function of (n, l), which
   is what makes the parallel counters scheduling-independent *)
let chunk_list n l =
  let len = List.length l in
  if len = 0 then []
  else begin
    let n = max 1 (min n len) in
    let base = len / n and extra = len mod n in
    let rec take k l =
      if k = 0 then ([], l)
      else
        match l with
        | [] -> ([], [])
        | x :: tl ->
            let h, rest = take (k - 1) tl in
            (x :: h, rest)
    in
    let rec go i l =
      if l = [] then []
      else begin
        let sz = base + if i < extra then 1 else 0 in
        let h, rest = take sz l in
        h :: go (i + 1) rest
      end
    in
    go 0 l
  end

(* ------------------------------------------------------------------ *)
(* seam instrumentation                                                 *)
(* ------------------------------------------------------------------ *)

(* Wall-clock accounting for the parallel costing seam itself, so the
   bench can report where a fan-out's time goes instead of asserting:
   [t_fanout] is total time inside Par.run_tasks (workers costing),
   [t_barrier_idle] the part of it the calling domain spent waiting on
   stragglers after the task counter drained (skew), and [t_merge] the
   sequential shard publication at the barrier.  Process-wide state,
   written only by the domain driving a search (the fan-out caller);
   concurrent searches would interleave their timings, which the bench
   — one search at a time — never does. *)
type seam_stats = {
  s_fanouts : int;  (** parallel fan-outs (costing + prepare passes) *)
  s_t_fanout : float;  (** seconds inside [Par.run_tasks] *)
  s_t_merge : float;  (** seconds publishing shard deltas at barriers *)
  s_t_barrier_idle : float;
      (** seconds the caller idled at barriers behind stragglers *)
}

let seam_zero =
  { s_fanouts = 0; s_t_fanout = 0.; s_t_merge = 0.; s_t_barrier_idle = 0. }

let seam_cur = ref seam_zero
let seam_reset () = seam_cur := seam_zero
let seam_stats () = !seam_cur

let seam_add ~fanout ~merge ~idle =
  let c = !seam_cur in
  seam_cur :=
    {
      s_fanouts = c.s_fanouts + 1;
      s_t_fanout = c.s_t_fanout +. fanout;
      s_t_merge = c.s_t_merge +. merge;
      s_t_barrier_idle = c.s_t_barrier_idle +. idle;
    }

(* Logical chunk granularity: the candidate list is split into up to
   [chunk_factor] chunks per worker — decoupled from [jobs] — and the
   chunks are self-scheduled onto the workers by {!Par.run_tasks}, so
   a skewed candidate cost delays at most one chunk's tail instead of
   serializing a static 1/jobs-th of the iteration behind it.  Still a
   pure function of [(jobs, list)]. *)
let chunk_factor = 8

(* Run one pass over the candidates, returning its results in input
   order: [seq c] on the engine itself, or with [jobs > 1] [par shard c]
   on the engine's persistent worker shards.  The engine is frozen into
   a read-only memo view, the candidates are split into fine-grained
   chunks (chunk_factor per worker) self-scheduled onto the persistent
   worker pool, and every worker slot runs its chunks on the shard for
   that slot — probing the frozen cache, recording new entries and
   counters privately.  At the barrier the shards publish back in
   worker-slot order.  Costs are pure memoization, results are keyed
   by chunk index, and the merged cache contents depend only on the
   candidate list, so cost/schema/trace stay bit-identical to a
   sequential run whatever the scheduling; only the hit/miss split
   (and wall clock) varies.

   If a candidate raises (the budget polls), the fan-out lets every
   in-flight chunk settle (they hit the same exhausted budget at their
   next candidate, so work stops promptly), discards the shards
   wholesale, and re-raises the lowest-index failure — the pass is
   abandoned all-or-nothing and the engine is left bit-identical to
   its barrier state. *)
let fan_out eng ~jobs ~seq ~par candidates =
  if jobs <= 1 || not Par.available then List.map seq candidates
  else begin
    let chunks = Array.of_list (chunk_list (jobs * chunk_factor) candidates) in
    let nchunks = Array.length chunks in
    if nchunks = 0 then []
    else begin
      let results = Array.make nchunks [] in
      let shards = Cost_engine.worker_shards eng jobs in
      Cost_engine.freeze eng;
      let t0 = Unix.gettimeofday () in
      let idle =
        try
          Par.run_tasks ~jobs nchunks (fun ~worker ci ->
              results.(ci) <- List.map (par shards.(worker)) chunks.(ci))
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          Cost_engine.discard_shards eng;
          Printexc.raise_with_backtrace e bt
      in
      let t1 = Unix.gettimeofday () in
      Cost_engine.merge eng (Array.to_list shards);
      seam_add ~fanout:(t1 -. t0) ~merge:(Unix.gettimeofday () -. t1) ~idle;
      List.concat (Array.to_list results)
    end
  end

(* Cost every candidate, returning [(candidate, cost-or-fault)] in
   input order.  [check] (Budget.tick) runs before each candidate on
   every path. *)
let par_cost eng ~check ~jobs ~schema_of candidates =
  fan_out eng ~jobs
    ~seq:(fun c -> (c, Cost_engine.cost_result ~check eng (schema_of c)))
    ~par:(fun sh c ->
      (c, Cost_engine.shard_cost_result ~check sh (schema_of c)))
    candidates

type stopped =
  [ `Converged | `Deadline | `Iterations | `Cost_budget | `Interrupted ]

let stopped_string = function
  | `Converged -> "converged"
  | `Deadline -> "deadline"
  | `Iterations -> "iterations"
  | `Cost_budget -> "cost_budget"
  | `Interrupted -> "interrupted"

let pp_stopped fmt s = Format.pp_print_string fmt (stopped_string s)

(* the canonical definitions live in Checkpoint (which serializes
   them); re-exported here so the public API is unchanged *)
type failure = Checkpoint.failure = {
  f_iteration : int;
  f_step : Space.step;
  f_stage : string;
  f_class : string;
  f_message : string;
}

let pp_failure fmt f =
  Format.fprintf fmt "iteration %d: %a: %s (%s: %s)" f.f_iteration
    Space.pp_step f.f_step f.f_class f.f_stage f.f_message

type trace_entry = Checkpoint.trace_entry = {
  iteration : int;
  cost : float;
  step : Space.step option;
  tables : int;
  engine : Cost_engine.snapshot;
  failures : failure list;
}

type result = {
  schema : Xschema.t;
  cost : float;
  trace : trace_entry list;
  engine : Cost_engine.snapshot;
  stopped : stopped;
  failures : failure list;
}

(* the failure records of one costing pass, in candidate order (which
   par_cost preserves for every [jobs] value) *)
let failures_of ~iteration ~step_of costed =
  List.filter_map
    (fun (c, r) ->
      match r with
      | Ok _ -> None
      | Error (f : Cost_engine.fault) ->
          Some
            {
              f_iteration = iteration;
              f_step = step_of c;
              f_stage = f.Cost_engine.stage;
              f_class = f.Cost_engine.exn_class;
              f_message = f.Cost_engine.message;
            })
    costed

let table_count schema =
  List.length
    (List.filter
       (fun ty -> not (Mapping.is_transparent schema ty))
       (Xschema.reachable schema))

(* ------------------------------------------------------------------ *)
(* checkpointing                                                       *)
(* ------------------------------------------------------------------ *)

(* Both strategies snapshot only {e barrier} state: the position after
   the last completed iteration, with the ticket count read at that
   barrier (in-flight iterations draw tickets nondeterministically and
   record nothing else, so excluding them is what makes resume
   bit-identical).  [trace] arrives newest-first and [failures] as
   reversed per-iteration chunks — the loops' internal accumulators —
   and is flattened here into the wire order. *)
let save_checkpoint ~checkpoint ~strategy ~kinds ~max_iterations ~eng
    ~iteration ~evaluations ~trace ~failures point =
  match checkpoint with
  | None -> ()
  | Some (path, _) ->
      Checkpoint.save ~path
        {
          Checkpoint.strategy;
          kinds;
          max_iterations;
          iteration;
          evaluations;
          trace = List.rev trace;
          failures = List.concat (List.rev failures);
          point;
          cache = Cost_engine.cache_entries eng;
        }

(* periodic snapshots fire at the barrier entering iteration
   [iteration + 1], every [every] completed iterations *)
let due ~checkpoint ~iteration =
  match checkpoint with
  | Some (_, every) when every > 0 && iteration > 0 && iteration mod every = 0
    ->
      true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* greedy descent (Algorithm 4.1)                                      *)
(* ------------------------------------------------------------------ *)

(* The loop proper, shared by a fresh search and a resumed one: a
   resumed search enters with the snapshot's barrier state and runs
   the very same code, which is the bit-identity argument in one line.
   [trace0] is newest-first; [failures0] is reversed chunks. *)
let greedy_core ~strategy ~kinds ~threshold ~max_iterations ~jobs ~ctl ~eng
    ~checkpoint ~start ~iteration0 ~schema0 ~cost0 ~trace0 ~failures0 =
  let jobs = resolve_jobs jobs in
  (* pre-spawn the worker pool outside the costing loop; it is global
     and persistent, so iterations and later searches reuse it *)
  if jobs > 1 && Par.available then Par.ensure_workers ~jobs;
  let check () = Budget.tick ctl in
  let rec descend iteration schema cost trace failures =
    (* barrier: no costing in flight, so the ticket counter is the
       deterministic per-completed-iteration value *)
    let bar_evals = Budget.evaluations ctl in
    let snap () =
      save_checkpoint ~checkpoint ~strategy ~kinds ~max_iterations ~eng
        ~iteration ~evaluations:bar_evals ~trace ~failures
        (Checkpoint.Greedy
           { g_schema = schema; g_cost = cost; g_threshold = threshold })
    in
    if due ~checkpoint ~iteration then snap ();
    match Budget.stop_at_iteration ctl iteration with
    | Some r ->
        snap ();
        (schema, cost, trace, failures, (r :> stopped))
    | None -> (
        if iteration >= max_iterations then begin
          snap ();
          (schema, cost, trace, failures, `Iterations)
        end
        else
          let before = Cost_engine.snapshot eng in
          match
            par_cost eng ~check ~jobs ~schema_of:snd
              (Space.neighbors ~kinds schema)
          with
          | exception Budget.Exhausted r ->
              (* the iteration is abandoned wholesale: the result is
                 the best-so-far over *completed* iterations, i.e. a
                 prefix of the unbudgeted trace — and the snapshot is
                 that same barrier state, so resume re-runs the
                 abandoned iteration from scratch *)
              snap ();
              (schema, cost, trace, failures, (r :> stopped))
          | costed -> (
              let iter_failures =
                failures_of ~iteration:(iteration + 1) ~step_of:fst costed
              in
              let failures' =
                match iter_failures with [] -> failures | l -> l :: failures
              in
              (* candidates are reduced sequentially in Space.neighbors
                 order with the first-wins tie-break, whatever [jobs]
                 costed them *)
              let best =
                List.fold_left
                  (fun best ((step, schema'), costed) ->
                    match costed with
                    | Error _ -> best
                    | Ok cost' -> (
                        match best with
                        | Some (_, _, bc) when bc <= cost' -> best
                        | _ -> Some (step, schema', cost')))
                  None costed
              in
              match best with
              | Some (step, schema', cost') when cost' < cost *. (1. -. threshold)
                ->
                  let entry =
                    {
                      iteration = iteration + 1;
                      cost = cost';
                      step = Some step;
                      tables = table_count schema';
                      engine = Cost_engine.diff (Cost_engine.snapshot eng) before;
                      failures = iter_failures;
                    }
                  in
                  descend (iteration + 1) schema' cost' (entry :: trace)
                    failures'
              | Some _ | None ->
                  (* converged; the snapshot is still the barrier state
                     (without this iteration's failures) — resuming it
                     re-runs the final iteration and re-converges with
                     the identical failure records *)
                  snap ();
                  (schema, cost, trace, failures', `Converged)))
  in
  let schema, cost, trace, failures, stopped =
    descend iteration0 schema0 cost0 trace0 failures0
  in
  {
    schema;
    cost;
    trace = List.rev trace;
    engine = Cost_engine.diff (Cost_engine.snapshot eng) start;
    stopped;
    failures = List.concat (List.rev failures);
  }

let greedy_from ~strategy ?params ?workload_indexes ?updates
    ?(kinds = Space.default_kinds) ?(threshold = 0.) ?(max_iterations = 200)
    ?(jobs = 1) ?memoize ?engine ?budget ?checkpoint ~workload schema =
  let ctl = match budget with Some b -> b | None -> Budget.unlimited () in
  let eng =
    match engine with
    | Some e -> e
    | None ->
        Cost_engine.create ?params ?workload_indexes ?updates ?memoize
          ~workload ()
  in
  let start = Cost_engine.snapshot eng in
  (* the initial configuration is exempt from the budget (no ticket,
     no cancellation): anytime search always has a result to return *)
  let initial_cost =
    match Cost_engine.cost_opt eng schema with
    | Some c -> c
    | None -> raise (Cost_error "initial configuration cannot be costed")
  in
  let trace0 =
    [
      {
        iteration = 0;
        cost = initial_cost;
        step = None;
        tables = table_count schema;
        engine = Cost_engine.diff (Cost_engine.snapshot eng) start;
        failures = [];
      };
    ]
  in
  greedy_core ~strategy ~kinds ~threshold ~max_iterations ~jobs ~ctl ~eng
    ~checkpoint ~start ~iteration0:0 ~schema0:schema ~cost0:initial_cost
    ~trace0 ~failures0:[]

let greedy ?params ?workload_indexes ?updates ?kinds ?threshold ?max_iterations
    ?jobs ?memoize ?engine ?budget ?checkpoint ~workload schema =
  greedy_from ~strategy:"greedy" ?params ?workload_indexes ?updates ?kinds
    ?threshold ?max_iterations ?jobs ?memoize ?engine ?budget ?checkpoint
    ~workload schema

let greedy_so ?params ?workload_indexes ?updates ?(kinds = [ Space.K_inline ])
    ?threshold ?max_iterations ?jobs ?memoize ?engine ?budget ?checkpoint
    ~workload schema =
  greedy_from ~strategy:"greedy_so" ?params ?workload_indexes ?updates ~kinds
    ?threshold ?max_iterations ?jobs ?memoize ?engine ?budget ?checkpoint
    ~workload (Init.all_outlined schema)

let greedy_si ?params ?workload_indexes ?updates ?(kinds = [ Space.K_outline ])
    ?threshold ?max_iterations ?jobs ?memoize ?engine ?budget ?checkpoint
    ~workload schema =
  greedy_from ~strategy:"greedy_si" ?params ?workload_indexes ?updates ~kinds
    ?threshold ?max_iterations ?jobs ?memoize ?engine ?budget ?checkpoint
    ~workload (Init.all_inlined schema)

let pp_trace fmt trace =
  List.iter
    (fun e ->
      Format.fprintf fmt "%3d  cost %12.1f  tables %3d  %a@." e.iteration e.cost
        e.tables
        (fun fmt -> function
          | Some s -> Space.pp_step fmt s
          | None -> Format.pp_print_string fmt "(initial)")
        e.step)
    trace

(* ------------------------------------------------------------------ *)
(* beam search (the "dynamic programming search strategies" of §7)     *)
(* ------------------------------------------------------------------ *)

(* the beam loop, shared by fresh and resumed searches just like
   [greedy_core] *)
let beam_core ~strategy ~kinds ~width ~patience ~max_iterations ~jobs ~ctl
    ~eng ~checkpoint ~start ~iteration0 ~barren0 ~frontier0 ~best0 ~seen0
    ~trace0 ~failures0 =
  let jobs = resolve_jobs jobs in
  if jobs > 1 && Par.available then Par.ensure_workers ~jobs;
  let check () = Budget.tick ctl in
  let seen = Hashtbl.create 64 in
  List.iter (fun fp -> Hashtbl.replace seen fp ()) seen0;
  let best = ref best0 in
  let trace = ref trace0 in
  let all_failures = ref failures0 in
  let rec level i barren frontier =
    (* barrier state, captured before this level mutates anything: a
       level that exits without recursing (converged, exhausted) must
       snapshot the position *entering* it, or resume would double-run
       whatever the exiting level recorded *)
    let bar_evals = Budget.evaluations ctl in
    let bar_trace = !trace in
    let bar_failures = !all_failures in
    let bar_best = !best in
    let snap () =
      let b_seen =
        List.sort String.compare
          (Hashtbl.fold (fun k () acc -> k :: acc) seen [])
      in
      save_checkpoint ~checkpoint ~strategy ~kinds ~max_iterations ~eng
        ~iteration:i ~evaluations:bar_evals ~trace:bar_trace
        ~failures:bar_failures
        (Checkpoint.Beam
           {
             b_frontier = frontier;
             b_best_schema = fst bar_best;
             b_best_cost = snd bar_best;
             b_seen;
             b_barren = barren;
             b_width = width;
             b_patience = patience;
           })
    in
    if due ~checkpoint ~iteration:i then snap ();
    match Budget.stop_at_iteration ctl i with
    | Some r ->
        snap ();
        (r :> stopped)
    | None ->
        if i >= max_iterations then begin
          snap ();
          `Iterations
        end
        else if barren >= patience || frontier = [] then begin
          snap ();
          `Converged
        end
        else begin
          let before = Cost_engine.snapshot eng in
          (* configurations reached by commuting step orders collide:
             dedupe within the level, but blacklist globally only what
             the beam actually keeps — otherwise a discarded sibling
             blocks the path that needs the same configuration one
             level later *)
          let level_seen = Hashtbl.create 32 in
          (* preparing (map and fingerprint) and costing are the two
             expensive per-candidate passes; both fan out over [jobs]
             chunks, with the sequential dedupe (first occurrence wins,
             in discovery order) in between so the level is
             bit-identical to a sequential one.  Each candidate is
             prepared once: the costing pass reuses the mapping and
             fingerprints the dedupe pass made.  Both passes poll the
             budget, so an exhausted budget abandons the level
             wholesale and the result is the best-so-far over completed
             levels. *)
          let raw =
            List.concat_map (fun (s, _) -> Space.neighbors ~kinds s) frontier
          in
          match
            let prepared =
              fan_out eng ~jobs
                ~seq:(fun (step, s') ->
                  Budget.poll ctl;
                  (step, s', Cost_engine.prepare eng s'))
                ~par:(fun sh (step, s') ->
                  Budget.poll ctl;
                  (step, s', Cost_engine.shard_prepare sh s'))
                raw
            in
            let deduped =
              List.filter
                (fun (_, _, p) ->
                  let fp = Cost_engine.fingerprint p in
                  if Hashtbl.mem seen fp || Hashtbl.mem level_seen fp then false
                  else begin
                    Hashtbl.replace level_seen fp ();
                    true
                  end)
                prepared
            in
            fan_out eng ~jobs
              ~seq:(fun ((_, _, p) as c) ->
                (c, Cost_engine.cost_prepared ~check eng p))
              ~par:(fun sh ((_, _, p) as c) ->
                (c, Cost_engine.shard_cost_prepared ~check sh p))
              deduped
          with
          | exception Budget.Exhausted r ->
              snap ();
              (r :> stopped)
          | costed -> (
              let level_failures =
                failures_of ~iteration:(i + 1)
                  ~step_of:(fun (step, _, _) -> step)
                  costed
              in
              if level_failures <> [] then
                all_failures := level_failures :: !all_failures;
              let candidates =
                List.filter_map
                  (fun ((step, s', p), costed) ->
                    match costed with
                    | Ok c -> Some (step, s', c, Cost_engine.fingerprint p)
                    | Error _ -> None)
                  costed
              in
              let sorted =
                List.sort
                  (fun (_, _, a, _) (_, _, b, _) -> Float.compare a b)
                  candidates
              in
              let keep =
                List.filteri (fun j _ -> j < width) sorted
                |> List.map (fun (step, s, c, fp) ->
                       Hashtbl.replace seen fp ();
                       (step, s, c))
              in

              match keep with
              | [] ->
                  snap ();
                  `Converged
              | (step, s0, c0) :: _ ->
                  let improved = c0 < snd !best in
                  if improved then begin
                    best := (s0, c0);
                    trace :=
                      {
                        iteration = i + 1;
                        cost = c0;
                        step = Some step;
                        tables = table_count s0;
                        engine =
                          Cost_engine.diff (Cost_engine.snapshot eng) before;
                        failures = level_failures;
                      }
                      :: !trace
                  end;
                  (* continue from every kept candidate, improving or
                     not: the beam can cross small cost hills, but gives
                     up after [patience] barren levels *)
                  level (i + 1)
                    (if improved then 0 else barren + 1)
                    (List.map (fun (_, s, c) -> (s, c)) keep))
        end
  in
  let stopped = level iteration0 barren0 frontier0 in
  let schema, cost = !best in
  {
    schema;
    cost;
    trace = List.rev !trace;
    engine = Cost_engine.diff (Cost_engine.snapshot eng) start;
    stopped;
    failures = List.concat (List.rev !all_failures);
  }

let beam ?params ?workload_indexes ?updates ?(kinds = Space.default_kinds)
    ?(width = 4) ?(patience = 3) ?(max_iterations = 200) ?(jobs = 1) ?memoize
    ?engine ?budget ?checkpoint ~workload schema =
  let ctl = match budget with Some b -> b | None -> Budget.unlimited () in
  let eng =
    match engine with
    | Some e -> e
    | None ->
        Cost_engine.create ?params ?workload_indexes ?updates ?memoize
          ~workload ()
  in
  let start = Cost_engine.snapshot eng in
  (* the initial configuration is exempt from the budget (no ticket,
     no cancellation): anytime search always has a result to return *)
  let p0 = Cost_engine.prepare eng schema in
  let initial_cost =
    match Cost_engine.cost_prepared eng p0 with
    | Ok c -> c
    | Error _ -> raise (Cost_error "initial configuration cannot be costed")
  in
  let trace0 =
    [
      {
        iteration = 0;
        cost = initial_cost;
        step = None;
        tables = table_count schema;
        engine = Cost_engine.diff (Cost_engine.snapshot eng) start;
        failures = [];
      };
    ]
  in
  beam_core ~strategy:"beam" ~kinds ~width ~patience ~max_iterations ~jobs
    ~ctl ~eng ~checkpoint ~start ~iteration0:0 ~barren0:0
    ~frontier0:[ (schema, initial_cost) ]
    ~best0:(schema, initial_cost)
    ~seen0:[ Cost_engine.fingerprint p0 ]
    ~trace0 ~failures0:[]

(* ------------------------------------------------------------------ *)
(* resume                                                              *)
(* ------------------------------------------------------------------ *)

let resume ?params ?workload_indexes ?updates ?(jobs = 1) ?memoize ?engine
    ?budget ?checkpoint ?max_iterations ?(warm = true) ~workload path =
  let st = Checkpoint.load path in
  let ctl = match budget with Some b -> b | None -> Budget.unlimited () in
  (* restore the cumulative ticket numbering: the tickets the previous
     process drew count against this budget's evaluation cap *)
  Budget.charge ctl st.Checkpoint.evaluations;
  let eng =
    match engine with
    | Some e -> e
    | None ->
        Cost_engine.create ?params ?workload_indexes ?updates ?memoize
          ~workload ()
  in
  (* warm resume seeds the memo table from the snapshot; a cold resume
     recomputes — bit-identical either way, the cache being pure
     memoization, so [warm] only trades disk bytes for optimizer time *)
  if warm then Cost_engine.seed_cache eng st.Checkpoint.cache;
  let start = Cost_engine.snapshot eng in
  let max_iterations =
    match max_iterations with
    | Some m -> m
    | None -> st.Checkpoint.max_iterations
  in
  let trace0 = List.rev st.Checkpoint.trace in
  let failures0 =
    match st.Checkpoint.failures with [] -> [] | l -> [ l ]
  in
  match st.Checkpoint.point with
  | Checkpoint.Greedy { g_schema; g_cost; g_threshold } ->
      greedy_core ~strategy:st.Checkpoint.strategy ~kinds:st.Checkpoint.kinds
        ~threshold:g_threshold ~max_iterations ~jobs ~ctl ~eng ~checkpoint
        ~start ~iteration0:st.Checkpoint.iteration ~schema0:g_schema
        ~cost0:g_cost ~trace0 ~failures0
  | Checkpoint.Beam
      {
        b_frontier;
        b_best_schema;
        b_best_cost;
        b_seen;
        b_barren;
        b_width;
        b_patience;
      } ->
      beam_core ~strategy:st.Checkpoint.strategy ~kinds:st.Checkpoint.kinds
        ~width:b_width ~patience:b_patience ~max_iterations ~jobs ~ctl ~eng
        ~checkpoint ~start ~iteration0:st.Checkpoint.iteration
        ~barren0:b_barren ~frontier0:b_frontier
        ~best0:(b_best_schema, b_best_cost) ~seen0:b_seen ~trace0 ~failures0
