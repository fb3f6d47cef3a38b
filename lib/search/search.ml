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
  s_fanouts : int;  (** fan-outs (costing + prepare passes) *)
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

(* Run one pass over the candidates, returning [f shard c] for each in
   input order, on the engine's worker shards at every [jobs]
   ({!Cost_engine.with_shards}).  The candidates are split into
   fine-grained chunks (chunk_factor per worker) self-scheduled onto
   the persistent worker pool (inline on the calling domain at
   [jobs = 1] and on the sequential backend), and every worker slot
   runs its chunks on the shard for that slot.  Costs are pure
   memoization, results are keyed by chunk index, and the published
   cache contents depend only on the candidate list, so
   cost/schema/trace are bit-identical whatever [jobs] and the
   scheduling; only the hit/miss split (and wall clock) varies.

   If a candidate raises (the budget polls), every in-flight chunk
   settles (they hit the same exhausted budget at their next
   candidate, so work stops promptly) and the lowest-index failure
   leaves [with_shards], which publishes nothing: the pass is
   abandoned all-or-nothing and the engine is left bit-identical to
   its barrier state.  The merge time is what [with_shards] spends
   publishing after the workers return. *)
let fan_out eng ~jobs f candidates =
  let chunks = Array.of_list (chunk_list (jobs * chunk_factor) candidates) in
  let nchunks = Array.length chunks in
  if nchunks = 0 then []
  else begin
    let results = Array.make nchunks [] in
    let t0, t1, idle =
      Cost_engine.with_shards eng ~jobs (fun shards ->
          let t0 = Unix.gettimeofday () in
          let idle =
            Par.run_tasks ~jobs nchunks (fun ~worker ci ->
                results.(ci) <- List.map (f shards.(worker)) chunks.(ci))
          in
          (t0, Unix.gettimeofday (), idle))
    in
    seam_add ~fanout:(t1 -. t0) ~merge:(Unix.gettimeofday () -. t1) ~idle;
    List.concat (Array.to_list results)
  end

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
   fan_out preserves for every [jobs] value) *)
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

(* What a search runs with: [jobs] resolved ([~jobs:0] is one per
   core), the budget, the engine, and the engine's counters before the
   search, which its result and trace report the difference from, so
   searches sharing an engine compose. *)
type run = {
  jobs : int;
  ctl : Budget.t;
  eng : Cost_engine.t;
  start : Cost_engine.snapshot;
}

(* The worker pool is pre-spawned here, outside the costing loop; it is
   global and persistent, so iterations and later searches reuse it. *)
let setup ?params ?workload_indexes ?updates ?engine ?budget ~jobs ~workload
    () =
  let jobs = if jobs <= 0 then Par.default_jobs () else jobs in
  Par.ensure_workers ~jobs;
  let eng =
    match engine with
    | Some e -> e
    | None ->
        Cost_engine.create ?params ?workload_indexes ?updates ~workload ()
  in
  let ctl = match budget with Some b -> b | None -> Budget.unlimited () in
  { jobs; ctl; eng; start = Cost_engine.snapshot eng }

(* The initial configuration, prepared and priced on the engine itself:
   it is exempt from the budget (no ticket, no cancellation), so an
   anytime search always has a result to return.  Returns its prepared
   and priced states and the trace's iteration-0 entry. *)
let initial run schema =
  let p0 = Cost_engine.prepare run.eng schema in
  match Cost_engine.price run.eng p0 with
  | Error _ -> raise (Cost_error "initial configuration cannot be costed")
  | Ok priced0 ->
      let cost = Cost_engine.priced_cost priced0 in
      ( p0,
        priced0,
        {
          iteration = 0;
          cost;
          step = None;
          tables = table_count schema;
          engine = Cost_engine.diff (Cost_engine.snapshot run.eng) run.start;
          failures = [];
        } )

(* a search's result; [trace] newest-first, [failures] reversed chunks *)
let finish run ~schema ~cost ~trace ~failures stopped =
  {
    schema;
    cost;
    trace = List.rev trace;
    engine = Cost_engine.diff (Cost_engine.snapshot run.eng) run.start;
    stopped;
    failures = List.concat (List.rev failures);
  }

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
let save_checkpoint ~checkpoint ~strategy ~kinds ~max_iterations ~iteration
    ~evaluations ~trace ~failures point =
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
   [trace0] is newest-first; [failures0] is reversed chunks.  [priced0]
   is the current configuration's priced state, which its neighbours
   are prepared from; a resumed search starts without it (neighbours
   are then derived afresh, to the same costs). *)
let greedy_core run ~strategy ~kinds ~threshold ~max_iterations ~checkpoint
    ~iteration0 ~schema0 ~cost0 ~priced0 ~trace0 ~failures0 =
  let check () = Budget.tick run.ctl in
  let rec descend iteration schema cost priced trace failures =
    (* barrier: no costing in flight, so the ticket counter is the
       deterministic per-completed-iteration value *)
    let bar_evals = Budget.evaluations run.ctl in
    let snap () =
      save_checkpoint ~checkpoint ~strategy ~kinds ~max_iterations ~iteration
        ~evaluations:bar_evals ~trace ~failures
        (Checkpoint.Greedy
           { g_schema = schema; g_cost = cost; g_threshold = threshold })
    in
    if due ~checkpoint ~iteration then snap ();
    match Budget.stop_at_iteration run.ctl iteration with
    | Some r ->
        snap ();
        (schema, cost, trace, failures, (r :> stopped))
    | None -> (
        if iteration >= max_iterations then begin
          snap ();
          (schema, cost, trace, failures, `Iterations)
        end
        else
          let before = Cost_engine.snapshot run.eng in
          (* price every neighbour, prepared from the current
             configuration's state; [check] (Budget.tick) runs before
             each one *)
          match
            fan_out run.eng ~jobs:run.jobs
              (fun sh c ->
                (c, Cost_engine.price_schema ~check ?parent:priced sh (snd c)))
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
                    | Ok priced' -> (
                        let cost' = Cost_engine.priced_cost priced' in
                        match best with
                        | Some (_, _, bc, _) when bc <= cost' -> best
                        | _ -> Some (step, schema', cost', priced')))
                  None costed
              in
              match best with
              | Some (step, schema', cost', priced')
                when cost' < cost *. (1. -. threshold) ->
                  let entry =
                    {
                      iteration = iteration + 1;
                      cost = cost';
                      step = Some step;
                      tables = table_count schema';
                      engine =
                        Cost_engine.diff (Cost_engine.snapshot run.eng) before;
                      failures = iter_failures;
                    }
                  in
                  descend (iteration + 1) schema' cost' (Some priced')
                    (entry :: trace) failures'
              | Some _ | None ->
                  (* converged; the snapshot is still the barrier state
                     (without this iteration's failures) — resuming it
                     re-runs the final iteration and re-converges with
                     the identical failure records *)
                  snap ();
                  (schema, cost, trace, failures', `Converged)))
  in
  let schema, cost, trace, failures, stopped =
    descend iteration0 schema0 cost0 priced0 trace0 failures0
  in
  finish run ~schema ~cost ~trace ~failures stopped

(* a threshold outside [0, 1) would accept a neighbour that costs more
   than the current configuration (a negative one) or none at all *)
let greedy_from ~strategy ?params ?workload_indexes ?updates
    ?(kinds = Space.default_kinds) ?(threshold = 0.) ?(max_iterations = 200)
    ?(jobs = 1) ?engine ?budget ?checkpoint ~workload schema =
  if not (threshold >= 0. && threshold < 1.) then
    invalid_arg
      (Printf.sprintf "Search.%s: threshold %g is outside [0, 1)" strategy
         threshold);
  let run =
    setup ?params ?workload_indexes ?updates ?engine ?budget ~jobs ~workload ()
  in
  let _, priced0, entry0 = initial run schema in
  greedy_core run ~strategy ~kinds ~threshold ~max_iterations ~checkpoint
    ~iteration0:0 ~schema0:schema ~cost0:entry0.cost ~priced0:(Some priced0)
    ~trace0:[ entry0 ] ~failures0:[]

let greedy ?params ?workload_indexes ?updates ?kinds ?threshold ?max_iterations
    ?jobs ?engine ?budget ?checkpoint ~workload schema =
  greedy_from ~strategy:"greedy" ?params ?workload_indexes ?updates ?kinds
    ?threshold ?max_iterations ?jobs ?engine ?budget ?checkpoint ~workload
    schema

let greedy_so ?params ?workload_indexes ?updates ?(kinds = [ Space.K_inline ])
    ?threshold ?max_iterations ?jobs ?engine ?budget ?checkpoint ~workload
    schema =
  greedy_from ~strategy:"greedy_so" ?params ?workload_indexes ?updates ~kinds
    ?threshold ?max_iterations ?jobs ?engine ?budget ?checkpoint ~workload
    (Init.all_outlined schema)

let greedy_si ?params ?workload_indexes ?updates ?(kinds = [ Space.K_outline ])
    ?threshold ?max_iterations ?jobs ?engine ?budget ?checkpoint ~workload
    schema =
  greedy_from ~strategy:"greedy_si" ?params ?workload_indexes ?updates ~kinds
    ?threshold ?max_iterations ?jobs ?engine ?budget ?checkpoint ~workload
    (Init.all_inlined schema)

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

(* beam's seen sets: catalog fingerprints with their hashes, taken once
   per candidate (a fingerprint runs to kilobytes) *)
module Seen = Hashtbl.Make (struct
  type t = string * int

  let equal (a, h) (b, h') = h = h' && String.equal a b
  let hash (_, h) = h
end)

(* the beam loop, shared by fresh and resumed searches just like
   [greedy_core] *)
let beam_core run ~strategy ~kinds ~width ~patience ~max_iterations
    ~checkpoint ~iteration0 ~barren0 ~frontier0 ~best0 ~seen0 ~trace0
    ~failures0 =
  let check () = Budget.tick run.ctl in
  let seen = Seen.create 64 in
  List.iter (fun fp -> Seen.replace seen (fp, Hashtbl.hash fp) ()) seen0;
  let best = ref best0 in
  let trace = ref trace0 in
  let all_failures = ref failures0 in
  let rec level i barren frontier =
    (* barrier state, captured before this level mutates anything: a
       level that exits without recursing (converged, exhausted) must
       snapshot the position *entering* it, or resume would double-run
       whatever the exiting level recorded *)
    let bar_evals = Budget.evaluations run.ctl in
    let bar_trace = !trace in
    let bar_failures = !all_failures in
    let bar_best = !best in
    let snap () =
      let b_seen =
        List.sort String.compare
          (Seen.fold (fun (k, _) () acc -> k :: acc) seen [])
      in
      save_checkpoint ~checkpoint ~strategy ~kinds ~max_iterations
        ~iteration:i ~evaluations:bar_evals ~trace:bar_trace
        ~failures:bar_failures
        (Checkpoint.Beam
           {
             b_frontier = List.map (fun (s, c, _) -> (s, c)) frontier;
             b_best_schema = fst bar_best;
             b_best_cost = snd bar_best;
             b_seen;
             b_barren = barren;
             b_width = width;
             b_patience = patience;
           })
    in
    if due ~checkpoint ~iteration:i then snap ();
    match Budget.stop_at_iteration run.ctl i with
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
          let before = Cost_engine.snapshot run.eng in
          (* configurations reached by commuting step orders collide:
             dedupe within the level, but blacklist globally only what
             the beam actually keeps — otherwise a discarded sibling
             blocks the path that needs the same configuration one
             level later *)
          let level_seen = Seen.create 32 in
          (* preparing (map and fingerprint) and costing are the two
             expensive per-candidate passes; both fan out over [jobs]
             chunks, with the sequential dedupe (first occurrence wins,
             in discovery order) in between so the level is the same
             for every [jobs].  Each candidate is prepared once: the
             costing pass reuses the mapping and fingerprints the
             dedupe pass made.  Both passes poll the budget, so an
             exhausted budget abandons the level wholesale and the
             result is the best-so-far over completed levels. *)
          let raw =
            List.concat_map
              (fun (s, _, parent) ->
                List.map
                  (fun (step, s') -> (step, s', parent))
                  (Space.neighbors ~kinds s))
              frontier
          in
          match
            let prepared =
              fan_out run.eng ~jobs:run.jobs
                (fun sh (step, s', parent) ->
                  Budget.poll run.ctl;
                  (step, s', Cost_engine.prepare ?parent sh s'))
                raw
            in
            let deduped =
              List.filter
                (fun (_, _, p) ->
                  let fp =
                    (Cost_engine.fingerprint p, Cost_engine.fingerprint_hash p)
                  in
                  if Seen.mem seen fp || Seen.mem level_seen fp then false
                  else begin
                    Seen.replace level_seen fp ();
                    true
                  end)
                prepared
            in
            fan_out run.eng ~jobs:run.jobs
              (fun sh ((_, _, p) as c) -> (c, Cost_engine.price ~check sh p))
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
                    | Ok pr ->
                        Some
                          ( step,
                            s',
                            Cost_engine.priced_cost pr,
                            ( Cost_engine.fingerprint p,
                              Cost_engine.fingerprint_hash p ),
                            pr )
                    | Error _ -> None)
                  costed
              in
              let sorted =
                List.sort
                  (fun (_, _, a, _, _) (_, _, b, _, _) -> Float.compare a b)
                  candidates
              in
              let keep =
                List.filteri (fun j _ -> j < width) sorted
                |> List.map (fun (step, s, c, fp, pr) ->
                       Seen.replace seen fp ();
                       (step, s, c, pr))
              in

              match keep with
              | [] ->
                  snap ();
                  `Converged
              | (step, s0, c0, _) :: _ ->
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
                          Cost_engine.diff
                            (Cost_engine.snapshot run.eng)
                            before;
                        failures = level_failures;
                      }
                      :: !trace
                  end;
                  (* continue from every kept candidate, improving or
                     not: the beam can cross small cost hills, but gives
                     up after [patience] barren levels *)
                  level (i + 1)
                    (if improved then 0 else barren + 1)
                    (List.map (fun (_, s, c, pr) -> (s, c, Some pr)) keep))
        end
  in
  let stopped = level iteration0 barren0 frontier0 in
  let schema, cost = !best in
  finish run ~schema ~cost ~trace:!trace ~failures:!all_failures stopped

let beam ?params ?workload_indexes ?updates ?(kinds = Space.default_kinds)
    ?(width = 4) ?(patience = 3) ?(max_iterations = 200) ?(jobs = 1) ?engine
    ?budget ?checkpoint ~workload schema =
  let run =
    setup ?params ?workload_indexes ?updates ?engine ?budget ~jobs ~workload ()
  in
  let p0, priced0, entry0 = initial run schema in
  beam_core run ~strategy:"beam" ~kinds ~width ~patience ~max_iterations
    ~checkpoint ~iteration0:0 ~barren0:0
    ~frontier0:[ (schema, entry0.cost, Some priced0) ]
    ~best0:(schema, entry0.cost)
    ~seen0:[ Cost_engine.fingerprint p0 ]
    ~trace0:[ entry0 ] ~failures0:[]

(* ------------------------------------------------------------------ *)
(* resume                                                              *)
(* ------------------------------------------------------------------ *)

let resume ?params ?workload_indexes ?updates ?(jobs = 1) ?engine ?budget
    ?checkpoint ?max_iterations ~workload path =
  let st = Checkpoint.load path in
  let run =
    setup ?params ?workload_indexes ?updates ?engine ?budget ~jobs ~workload ()
  in
  (* restore the cumulative ticket numbering: the tickets the previous
     process drew count against this budget's evaluation cap *)
  Budget.charge run.ctl st.Checkpoint.evaluations;
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
      greedy_core run ~strategy:st.Checkpoint.strategy
        ~kinds:st.Checkpoint.kinds ~threshold:g_threshold ~max_iterations
        ~checkpoint ~iteration0:st.Checkpoint.iteration ~schema0:g_schema
        ~cost0:g_cost ~priced0:None ~trace0 ~failures0
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
      beam_core run ~strategy:st.Checkpoint.strategy ~kinds:st.Checkpoint.kinds
        ~width:b_width ~patience:b_patience ~max_iterations ~checkpoint
        ~iteration0:st.Checkpoint.iteration ~barren0:b_barren
        ~frontier0:(List.map (fun (s, c) -> (s, c, None)) b_frontier)
        ~best0:(b_best_schema, b_best_cost) ~seen0:b_seen ~trace0 ~failures0
