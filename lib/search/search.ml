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

(* The cap on completed iterations of a fresh search, which its
   snapshots record: a backstop against a search that never
   converges, far beyond what an IMDB design takes (a greedy lookup
   design converges in 13).  A caller caps a search through its budget
   ({!Budget.create}'s [~max_iterations]); a resumed search keeps its
   snapshot's cap. *)
let default_max_iterations = 200

(* What a search runs with: its identity (strategy, kinds, iteration
   cap and checkpoint target, which every snapshot records), [jobs]
   resolved ([~jobs:0] is one per core), the budget, the engine, and
   the engine's counters before the search, which its result and trace
   report the difference from, so searches sharing an engine compose. *)
type run = {
  strategy : string;
  kinds : Space.kind list;
  max_iterations : int;
  checkpoint : (string * int) option;
  jobs : int;
  ctl : Budget.t;
  eng : Cost_engine.t;
  start : Cost_engine.snapshot;
}

(* A given engine must price [workload]: a search never reads
   [workload] beside it.  The worker pool is pre-spawned here, outside
   the costing loop; it is global and persistent, so iterations and
   later searches reuse it. *)
let setup ~strategy ~kinds ~max_iterations ?checkpoint ?engine ?budget ~jobs
    ~workload () =
  let eng =
    match engine with
    | None -> Cost_engine.create ~workload ()
    | Some e when Cost_engine.workload e = workload -> e
    | Some _ ->
        invalid_arg ("Search." ^ strategy ^ ": ~workload is not the engine's")
  in
  let jobs = if jobs <= 0 then Par.default_jobs () else jobs in
  Par.ensure_workers ~jobs;
  let ctl = match budget with Some b -> b | None -> Budget.unlimited () in
  {
    strategy;
    kinds;
    max_iterations;
    checkpoint;
    jobs;
    ctl;
    eng;
    start = Cost_engine.snapshot eng;
  }

(* The trace entry of iteration [iteration], which reached [schema] at
   [cost] by [step]; its engine work is the engine's since [before]. *)
let entry run ~before ~iteration ?step ?(failures = []) schema cost =
  {
    iteration;
    cost;
    step;
    tables = table_count schema;
    engine = Cost_engine.diff (Cost_engine.snapshot run.eng) before;
    failures;
  }

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
      (p0, priced0, entry run ~before:run.start ~iteration:0 schema cost)

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
(* the iteration barrier                                               *)
(* ------------------------------------------------------------------ *)

(* Both loops pass this barrier before each iteration (beam level),
   with [iteration] iterations complete.  No costing is in flight, so
   the budget's ticket count is the deterministic value for the
   completed iterations, and [trace] (newest-first), [failures]
   (reversed per-iteration chunks) and the continuation [point ()] are
   the state a snapshot holds: in-flight iterations draw tickets
   nondeterministically and record nothing else, so excluding them is
   what makes resume bit-identical.

   The barrier writes a periodic snapshot every [every] completed
   iterations, then stops the search when the budget or the iteration
   cap says so, and otherwise runs [iterate]: [Ok] the next barrier's
   state, or [Error] the loop's own stop.  An iteration the budget
   exhausts is abandoned wholesale, so the result is the best-so-far
   over completed iterations, a prefix of the unbudgeted trace.  Every
   stop snapshots this barrier's state, which a resumed search
   continues from by running the stopping iteration again: an
   abandoned one from scratch, a converged one to the same
   convergence and the same failure records. *)
let barrier run ~iteration ~trace ~failures ~point iterate =
  let evaluations = Budget.evaluations run.ctl in
  let snap () =
    match run.checkpoint with
    | None -> ()
    | Some (path, _) ->
        Checkpoint.save ~path
          {
            Checkpoint.strategy = run.strategy;
            kinds = run.kinds;
            max_iterations = run.max_iterations;
            iteration;
            evaluations;
            trace = List.rev trace;
            failures = List.concat (List.rev failures);
            point = point ();
          }
  in
  (match run.checkpoint with
  | Some (_, every) when every > 0 && iteration > 0 && iteration mod every = 0
    ->
      snap ()
  | _ -> ());
  let outcome =
    match Budget.stop_at_iteration run.ctl iteration with
    | Some r -> Error (r :> stopped)
    | None when iteration >= run.max_iterations -> Error `Iterations
    | None -> ( try iterate () with Budget.Exhausted r -> Error (r :> stopped))
  in
  if Result.is_error outcome then snap ();
  outcome

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
let greedy_core run ~threshold ~iteration0 ~schema0 ~cost0 ~priced0 ~trace0
    ~failures0 =
  let check () = Budget.tick run.ctl in
  let trace = ref trace0 and failures = ref failures0 in
  let rec descend iteration schema cost priced =
    let point () =
      Checkpoint.Greedy
        { g_schema = schema; g_cost = cost; g_threshold = threshold }
    in
    match
      barrier run ~iteration ~trace:!trace ~failures:!failures ~point
        (fun () ->
          let before = Cost_engine.snapshot run.eng in
          (* price every neighbour, prepared from the current
             configuration's state; [check] (Budget.tick) runs before
             each one *)
          let costed =
            fan_out run.eng ~jobs:run.jobs
              (fun sh c ->
                (c, Cost_engine.price_schema ~check ?parent:priced sh (snd c)))
              (Space.neighbors ~kinds:run.kinds schema)
          in
          let iter_failures =
            failures_of ~iteration:(iteration + 1) ~step_of:fst costed
          in
          if iter_failures <> [] then failures := iter_failures :: !failures;
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
              trace :=
                entry run ~before ~iteration:(iteration + 1) ~step
                  ~failures:iter_failures schema' cost'
                :: !trace;
              Ok (schema', cost', priced')
          | Some _ | None -> Error `Converged)
    with
    | Ok (schema', cost', priced') ->
        descend (iteration + 1) schema' cost' (Some priced')
    | Error stopped -> (schema, cost, stopped)
  in
  let schema, cost, stopped = descend iteration0 schema0 cost0 priced0 in
  finish run ~schema ~cost ~trace:!trace ~failures:!failures stopped

(* a threshold outside [0, 1) would accept a neighbour that costs more
   than the current configuration (a negative one) or none at all *)
let greedy_from ~strategy ~kinds ?(threshold = 0.) ?(jobs = 1) ?engine
    ?budget ?checkpoint ~workload schema =
  if not (threshold >= 0. && threshold < 1.) then
    invalid_arg
      (Printf.sprintf "Search.%s: threshold %g is outside [0, 1)" strategy
         threshold);
  let run =
    setup ~strategy ~kinds ~max_iterations:default_max_iterations ?checkpoint
      ?engine ?budget ~jobs ~workload ()
  in
  let _, priced0, entry0 = initial run schema in
  greedy_core run ~threshold ~iteration0:0 ~schema0:schema ~cost0:entry0.cost
    ~priced0:(Some priced0) ~trace0:[ entry0 ] ~failures0:[]

let greedy ?(kinds = Space.default_kinds) ?threshold ?jobs ?engine ?budget
    ?checkpoint ~workload schema =
  greedy_from ~strategy:"greedy" ~kinds ?threshold ?jobs ?engine ?budget
    ?checkpoint ~workload schema

let greedy_so ?(kinds = [ Space.K_inline ]) ?threshold ?jobs ?engine ?budget
    ?checkpoint ~workload schema =
  greedy_from ~strategy:"greedy_so" ~kinds ?threshold ?jobs ?engine ?budget
    ?checkpoint ~workload (Init.all_outlined schema)

let greedy_si ?(kinds = [ Space.K_outline ]) ?threshold ?jobs ?engine ?budget
    ?checkpoint ~workload schema =
  greedy_from ~strategy:"greedy_si" ~kinds ?threshold ?jobs ?engine ?budget
    ?checkpoint ~workload (Init.all_inlined schema)

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
let beam_core run ~width ~patience ~iteration0 ~barren0 ~frontier0 ~best0
    ~seen0 ~trace0 ~failures0 =
  let check () = Budget.tick run.ctl in
  let seen = Seen.create 64 in
  List.iter (fun fp -> Seen.replace seen (fp, Hashtbl.hash fp) ()) seen0;
  let best = ref best0 in
  let trace = ref trace0 in
  let failures = ref failures0 in
  let rec level i barren frontier =
    (* the position entering this level, read before the level mutates
       anything: a level that stops (converged, exhausted) snapshots
       it, or resume would double-run whatever the level recorded *)
    let best_schema, best_cost = !best in
    let point () =
      Checkpoint.Beam
        {
          b_frontier = List.map (fun (s, c, _) -> (s, c)) frontier;
          b_best_schema = best_schema;
          b_best_cost = best_cost;
          b_seen =
            List.sort String.compare
              (Seen.fold (fun (k, _) () acc -> k :: acc) seen []);
          b_barren = barren;
          b_width = width;
          b_patience = patience;
        }
    in
    match
      barrier run ~iteration:i ~trace:!trace ~failures:!failures ~point
        (fun () ->
          if barren >= patience || frontier = [] then Error `Converged
          else
            let before = Cost_engine.snapshot run.eng in
            (* configurations reached by commuting step orders collide:
               dedupe within the level, but blacklist globally only
               what the beam actually keeps — otherwise a discarded
               sibling blocks the path that needs the same
               configuration one level later *)
            let level_seen = Seen.create 32 in
            (* preparing (map and fingerprint) and costing are the two
               expensive per-candidate passes; both fan out over [jobs]
               chunks, with the sequential dedupe (first occurrence
               wins, in discovery order) in between so the level is the
               same for every [jobs].  Each candidate is prepared once:
               the costing pass reuses the mapping and fingerprints the
               dedupe pass made.  Both passes poll the budget. *)
            let raw =
              List.concat_map
                (fun (s, _, parent) ->
                  List.map
                    (fun (step, s') -> (step, s', parent))
                    (Space.neighbors ~kinds:run.kinds s))
                frontier
            in
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
            let costed =
              fan_out run.eng ~jobs:run.jobs
                (fun sh ((_, _, p) as c) -> (c, Cost_engine.price ~check sh p))
                deduped
            in
            let level_failures =
              failures_of ~iteration:(i + 1)
                ~step_of:(fun (step, _, _) -> step)
                costed
            in
            if level_failures <> [] then
              failures := level_failures :: !failures;
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
            | [] -> Error `Converged
            | (step, s0, c0, _) :: _ ->
                let improved = c0 < best_cost in
                if improved then begin
                  best := (s0, c0);
                  trace :=
                    entry run ~before ~iteration:(i + 1) ~step
                      ~failures:level_failures s0 c0
                    :: !trace
                end;
                (* continue from every kept candidate, improving or
                   not: the beam can cross small cost hills, but gives
                   up after [patience] barren levels *)
                Ok
                  ( (if improved then 0 else barren + 1),
                    List.map (fun (_, s, c, pr) -> (s, c, Some pr)) keep ))
    with
    | Ok (barren', frontier') -> level (i + 1) barren' frontier'
    | Error stopped -> stopped
  in
  let stopped = level iteration0 barren0 frontier0 in
  let schema, cost = !best in
  finish run ~schema ~cost ~trace:!trace ~failures:!failures stopped

(* a width or patience below 1 would keep nothing or stop before the
   first level *)
let beam ?(kinds = Space.default_kinds) ?(width = 4) ?(patience = 3)
    ?(jobs = 1) ?engine ?budget ?checkpoint ~workload schema =
  if width < 1 then
    invalid_arg (Printf.sprintf "Search.beam: width %d is below 1" width);
  if patience < 1 then
    invalid_arg (Printf.sprintf "Search.beam: patience %d is below 1" patience);
  let run =
    setup ~strategy:"beam" ~kinds ~max_iterations:default_max_iterations
      ?checkpoint ?engine ?budget ~jobs ~workload ()
  in
  let p0, priced0, entry0 = initial run schema in
  beam_core run ~width ~patience ~iteration0:0 ~barren0:0
    ~frontier0:[ (schema, entry0.cost, Some priced0) ]
    ~best0:(schema, entry0.cost)
    ~seen0:[ Cost_engine.fingerprint p0 ]
    ~trace0:[ entry0 ] ~failures0:[]

(* ------------------------------------------------------------------ *)
(* resume                                                              *)
(* ------------------------------------------------------------------ *)

let resume ?(jobs = 1) ?engine ?budget ?checkpoint ~workload path =
  let st = Checkpoint.load path in
  let run =
    setup ~strategy:st.Checkpoint.strategy ~kinds:st.Checkpoint.kinds
      ~max_iterations:st.Checkpoint.max_iterations ?checkpoint ?engine ?budget
      ~jobs ~workload ()
  in
  (* restore the cumulative ticket numbering: the tickets the previous
     process drew count against this budget's evaluation cap *)
  Budget.charge run.ctl st.Checkpoint.evaluations;
  let trace0 = List.rev st.Checkpoint.trace in
  let failures0 =
    match st.Checkpoint.failures with [] -> [] | l -> [ l ]
  in
  match st.Checkpoint.point with
  | Checkpoint.Greedy { g_schema; g_cost; g_threshold } ->
      greedy_core run ~threshold:g_threshold
        ~iteration0:st.Checkpoint.iteration ~schema0:g_schema ~cost0:g_cost
        ~priced0:None ~trace0 ~failures0
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
      beam_core run ~width:b_width ~patience:b_patience
        ~iteration0:st.Checkpoint.iteration ~barren0:b_barren
        ~frontier0:(List.map (fun (s, c) -> (s, c, None)) b_frontier)
        ~best0:(b_best_schema, b_best_cost) ~seen0:b_seen ~trace0 ~failures0
