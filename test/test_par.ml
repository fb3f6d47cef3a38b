(* The parallel evaluation layer: whatever the [jobs] value, search
   results must be bit-identical to the sequential run — the reduction
   is deterministic by construction (static chunking, per-chunk engine
   shards, ordered merges) and these tests pin that contract down. *)

open Legodb
open Test_util

let all_queries = [| 8; 9; 11; 12; 13; 15; 16; 17 |]

let prop name ?(count = 50) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* trace equality modulo the [engine] field: snapshots carry wall-clock
   timers, and the hit/miss split legitimately depends on the chunking
   (chunks cannot see each other's in-flight entries) *)
let step_str = Option.map (Format.asprintf "%a" Space.pp_step)

let same_trace a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Search.trace_entry) (y : Search.trace_entry) ->
         x.Search.iteration = y.Search.iteration
         && Float.equal x.Search.cost y.Search.cost
         && x.Search.tables = y.Search.tables
         && Option.equal String.equal (step_str x.Search.step)
              (step_str y.Search.step))
       a b

let check_bit_identical name r1 rn =
  check_bool (name ^ ": same cost") true
    (Float.equal r1.Search.cost rn.Search.cost);
  check_string
    (name ^ ": same schema")
    (Xschema.to_string r1.Search.schema)
    (Xschema.to_string rn.Search.schema);
  check_bool (name ^ ": same trace") true
    (same_trace r1.Search.trace rn.Search.trace)

(* a random sub-workload and strategy; both strategies are re-run with
   jobs=1 and jobs=4 and must agree bit for bit *)
let gen_workload =
  QCheck2.Gen.(
    pair
      (list_size (int_range 1 2) (int_range 0 (Array.length all_queries - 1)))
      bool)

let run_determinism (picks, use_beam) =
  let workload =
    List.sort_uniq compare picks
    |> List.map (fun i -> Imdb.Queries.q all_queries.(i))
    |> Workload.of_queries
  in
  let run ~jobs =
    if use_beam then
      Search.beam ~jobs ~width:3 ~patience:1
        ~budget:(Budget.create ~max_iterations:2 ())
        ~workload
        (Init.all_inlined (Lazy.force annotated_imdb))
    else
      Search.greedy_si ~jobs ~budget:(Budget.create ~max_iterations:3 ())
        ~workload
        (Lazy.force annotated_imdb)
  in
  let r1 = run ~jobs:1 and r4 = run ~jobs:4 in
  Float.equal r1.Search.cost r4.Search.cost
  && String.equal
       (Xschema.to_string r1.Search.schema)
       (Xschema.to_string r4.Search.schema)
  && same_trace r1.Search.trace r4.Search.trace

(* chunk the inlined IMDB neighbours three ways for the shard tests:
   one pass on three shards, returning each shard's counters as the
   pass left them, before they are published *)
let shard_fixture () =
  let workload = Imdb.Workloads.lookup in
  let eng = Cost_engine.create ~workload () in
  let base = Init.all_inlined (Lazy.force annotated_imdb) in
  let nbs = List.filteri (fun i _ -> i < 3) (Space.neighbors base) in
  let snaps =
    Cost_engine.with_shards eng ~jobs:3 (fun shards ->
        List.map2
          (fun (_, nb) sh ->
            (* the base schema first: every shard recomputes it
               privately (misses), then its neighbour hits on the
               unchanged tables *)
            ignore (Cost_engine.cost sh base);
            ignore (Cost_engine.cost sh nb);
            Cost_engine.snapshot sh)
          nbs (Array.to_list shards))
  in
  (eng, base, snaps)

(* [f ()] must raise [Invalid_argument] *)
let rejects what f =
  match f () with
  | _ -> Alcotest.fail ("expected Invalid_argument: " ^ what)
  | exception Invalid_argument _ -> ()

let suite =
  [
    case "backend is coherent" (fun () ->
        check_bool "known backend" true
          (List.mem Par.backend [ "domains"; "sequential" ]);
        check_bool "availability matches backend"
          (String.equal Par.backend "domains")
          Par.available;
        check_bool "default_jobs positive" true (Par.default_jobs () >= 1));
    case "run_list returns results in submission order" (fun () ->
        (* uneven busy-work so eager completion would reorder results *)
        let work i =
          let n = ref 0 in
          for _ = 1 to (50 - i) * 1000 do
            incr n
          done;
          i + min !n 0
        in
        let fs = List.init 50 (fun i () -> work i) in
        check_bool "ordered" true (Par.run_list fs = List.init 50 Fun.id);
        check_bool "empty" true (Par.run_list [] = []);
        check_bool "singleton" true (Par.run_list [ (fun () -> 7) ] = [ 7 ]));
    case "run_list re-raises the leftmost failure" (fun () ->
        let fs =
          [
            (fun () -> 1);
            (fun () -> raise Not_found);
            (fun () -> invalid_arg "later failure");
          ]
        in
        match Par.run_list fs with
        | _ -> Alcotest.fail "expected Not_found"
        | exception Not_found -> ());
    case "pool survives a poisoned chunk" (fun () ->
        (* a task that raises must not kill its worker: later fan-outs
           on the same (global) pool still complete and stay ordered *)
        let expected = List.init 20 (fun i -> i * i) in
        for round = 1 to 3 do
          (match
             Par.run_list
               [ (fun () -> 1); (fun () -> failwith "poison"); (fun () -> 3) ]
           with
          | _ -> Alcotest.fail "expected Failure"
          | exception Failure _ -> ());
          check_bool
            (Printf.sprintf "usable after poison (round %d)" round)
            true
            (Par.run_list (List.init 20 (fun i () -> i * i)) = expected)
        done);
    case "merged snapshot sums the shard counters exactly" (fun () ->
        let eng, _, snaps = shard_fixture () in
        check_bool "shards hit inside their chunk" true
          (List.for_all (fun s -> s.Cost_engine.hits > 0) snaps);
        let s = Cost_engine.snapshot eng in
        let sum f = List.fold_left (fun a x -> a + f x) 0 snaps in
        let fsum f = List.fold_left (fun a x -> a +. f x) 0. snaps in
        check_int "evaluations"
          (sum (fun s -> s.Cost_engine.evaluations))
          s.Cost_engine.evaluations;
        check_int "hits" (sum (fun s -> s.Cost_engine.hits)) s.Cost_engine.hits;
        check_int "misses"
          (sum (fun s -> s.Cost_engine.misses))
          s.Cost_engine.misses;
        check_bool "mapping time" true
          (Float.equal s.Cost_engine.t_mapping
             (fsum (fun s -> s.Cost_engine.t_mapping)));
        check_bool "optimize time" true
          (Float.equal s.Cost_engine.t_optimize
             (fsum (fun s -> s.Cost_engine.t_optimize)));
        (* publishing resets the shards: a pass that costs nothing
           must not count them again *)
        Cost_engine.with_shards eng ~jobs:3 ignore;
        check_bool "an empty pass adds nothing" true
          (Cost_engine.snapshot eng = s));
    case "merged entries serve later costs from the cache" (fun () ->
        let eng, base, _ = shard_fixture () in
        let before = Cost_engine.snapshot eng in
        ignore (Cost_engine.cost eng base);
        let after = Cost_engine.snapshot eng in
        check_int "no new misses" before.Cost_engine.misses
          after.Cost_engine.misses;
        check_bool "only hits" true
          (after.Cost_engine.hits > before.Cost_engine.hits));
    case "pschema_cost equals a one-shot engine" (fun () ->
        let workload = Imdb.Workloads.lookup in
        let s = Init.all_inlined (Lazy.force annotated_imdb) in
        let p = Search.pschema_cost ~workload s in
        let cached = Cost_engine.cost (Cost_engine.create ~workload ()) s in
        let cold =
          Cost_engine.cost (Cost_engine.create ~memoize:false ~workload ()) s
        in
        check_bool "engine (memoized)" true (Float.equal p cached);
        check_bool "engine (uncached)" true (Float.equal p cold));
    prop "chunk_list: identity, count, balance, order" ~count:200
      QCheck2.Gen.(
        pair (int_range 0 12) (list_size (int_range 0 40) small_int))
      (fun (n, l) ->
        let chunks = Search.chunk_list n l in
        List.concat chunks = l
        && List.length chunks <= max 1 n
        && List.for_all (fun c -> c <> []) chunks
        && (l = [] || chunks <> [])
        &&
        let sizes = List.map List.length chunks in
        let mx = List.fold_left max 0 sizes in
        let mn = List.fold_left min max_int sizes in
        sizes = [] || mx - mn <= 1);
    case "run_tasks runs every index exactly once, workers in range"
      (fun () ->
        let n = 100 in
        let jobs = 4 in
        let counts = Array.make n 0 in
        let bad_worker = Atomic.make false in
        (* each index is claimed by exactly one participant, so the
           per-index slot write never races *)
        let idle =
          Par.run_tasks ~jobs n (fun ~worker i ->
              if worker < 0 || worker >= jobs then Atomic.set bad_worker true;
              counts.(i) <- counts.(i) + 1)
        in
        check_bool "worker slots within jobs" false (Atomic.get bad_worker);
        check_bool "caller idle time non-negative" true (idle >= 0.);
        check_bool "each index exactly once" true
          (Array.for_all (fun c -> c = 1) counts);
        check_bool "empty fan-out" true
          (Par.run_tasks ~jobs:4 0 (fun ~worker:_ _ -> assert false) = 0.));
    case "run_tasks re-raises the lowest failing index" (fun () ->
        match
          Par.run_tasks ~jobs:4 10 (fun ~worker:_ i ->
              if i = 3 then raise Not_found;
              if i = 7 then failwith "higher index loses")
        with
        | _ -> Alcotest.fail "expected Not_found"
        | exception Not_found -> ());
    case "run_tasks tolerates nested fan-outs (runs them inline)"
      (fun () ->
        let inner = Atomic.make 0 in
        ignore
          (Par.run_tasks ~jobs:2 3 (fun ~worker:_ _ ->
               ignore
                 (Par.run_tasks ~jobs:2 4 (fun ~worker:_ j ->
                      ignore (Atomic.fetch_and_add inner j)))));
        (* 3 outer tasks x (0+1+2+3) *)
        check_int "nested tasks all ran" 18 (Atomic.get inner));
    case "pool is sized by jobs and capped by cores, grow-only" (fun () ->
        let cap = max 0 (Par.default_jobs () - 1) in
        ignore (Par.run_list (List.init 30 (fun i () -> i)));
        let after_wide = Par.pool_size () in
        check_bool "a wide list does not outgrow the core count" true
          (after_wide <= cap);
        Par.ensure_workers ~jobs:5;
        let after = Par.pool_size () in
        check_bool "grow-only" true (after >= after_wide);
        check_bool "capped by cores and the domain limit" true
          (after <= cap && after <= 120));
    case "a frozen engine rejects direct costing until thawed" (fun () ->
        let workload = Imdb.Workloads.lookup in
        let eng = Cost_engine.create ~workload () in
        let s = Init.all_inlined (Lazy.force annotated_imdb) in
        (match
           Cost_engine.with_shards eng ~jobs:2 (fun shards ->
               rejects "costing on the frozen engine" (fun () ->
                   Cost_engine.cost eng s);
               rejects "a nested pass" (fun () ->
                   Cost_engine.with_shards eng ~jobs:1 ignore);
               rejects "a pass on a shard" (fun () ->
                   Cost_engine.with_shards shards.(0) ~jobs:1 ignore);
               raise Exit)
         with
        | () -> Alcotest.fail "expected Exit"
        | exception Exit -> ());
        (* the raising pass thawed the engine *)
        ignore (Cost_engine.cost eng s));
    case "worker shards are persistent and reusable after merge" (fun () ->
        let workload = Imdb.Workloads.lookup in
        let eng = Cost_engine.create ~workload () in
        let s = Init.all_inlined (Lazy.force annotated_imdb) in
        let first =
          Cost_engine.with_shards eng ~jobs:3 (fun shards ->
              check_int "requested width" 3 (Array.length shards);
              ignore (Cost_engine.cost shards.(0) s);
              shards)
        in
        check_int "publishing resets the shard for reuse" 0
          (Cost_engine.snapshot first.(0)).Cost_engine.evaluations;
        Cost_engine.with_shards eng ~jobs:2 (fun again ->
            check_bool "same shard objects on the next pass" true
              (again.(0) == first.(0) && again.(1) == first.(1));
            (* a reused shard hits on the published entry via the
               shared cache *)
            ignore (Cost_engine.cost again.(0) s);
            check_int "no recomputation on reuse" 0
              (Cost_engine.snapshot again.(0)).Cost_engine.misses);
        let before = Cost_engine.snapshot eng in
        (match
           Cost_engine.with_shards eng ~jobs:1 (fun shards ->
               ignore (Cost_engine.cost shards.(0) s);
               raise Exit)
         with
        | () -> Alcotest.fail "expected Exit"
        | exception Exit -> ());
        check_int "an abandoned pass zeroes private counters" 0
          (Cost_engine.snapshot first.(0)).Cost_engine.evaluations;
        check_bool "an abandoned pass publishes no counters" true
          (Cost_engine.snapshot eng = before));
    case "engine pool/shard reuse does not leak counters between runs"
      (fun () ->
        (* fresh-engine equality oracle: a search on a reused engine
           (persistent worker shards, warm memo) must select the same
           design as a fresh-engine run, and its per-search engine
           delta must count the same configurations, statement
           costings, and faults — only the hit/miss split may shift
           toward hits *)
        let workload = Imdb.Workloads.mixed 0.5 in
        let schema = Lazy.force annotated_imdb in
        let run ?engine () =
          Search.greedy_si ~jobs:4
            ~budget:(Budget.create ~max_iterations:3 ())
            ?engine ~workload schema
        in
        let r1 = run () in
        let eng = Cost_engine.create ~workload () in
        let ra = run ~engine:eng () in
        let rb = run ~engine:eng () in
        check_bit_identical "first shared-engine run" r1 ra;
        check_bit_identical "second shared-engine run" r1 rb;
        let d1 = r1.Search.engine and db = rb.Search.engine in
        check_int "evaluations do not leak across runs"
          d1.Cost_engine.evaluations db.Cost_engine.evaluations;
        check_int "faults do not leak across runs" d1.Cost_engine.faults
          db.Cost_engine.faults;
        check_int "statement costings do not leak across runs"
          (d1.Cost_engine.hits + d1.Cost_engine.misses)
          (db.Cost_engine.hits + db.Cost_engine.misses));
    case "abandoned parallel iteration publishes nothing" (fun () ->
        (* a budget that trips mid-iteration abandons the fan-out
           wholesale, at one job as at four: the engine's memo table
           must be exactly the barrier state — the table of a run
           stopped cleanly at the completed-iteration count — with no
           partial shard deltas.  The tables are compared through an
           unbudgeted -j 1 re-run on each engine, whose misses are the
           keys its table lacks: an entry leaked from the abandoned
           pass would turn one of them into a hit. *)
        let workload = Imdb.Workloads.lookup in
        let schema = Lazy.force annotated_imdb in
        List.iter
          (fun jobs ->
            let eng = Cost_engine.create ~workload () in
            let budget = Budget.create ~max_evaluations:40 () in
            let r =
              Search.greedy_si ~jobs ~engine:eng ~budget ~workload schema
            in
            check_string "stopped by the evaluation budget" "cost_budget"
              (Search.stopped_string r.Search.stopped);
            let completed =
              List.fold_left
                (fun acc (e : Search.trace_entry) ->
                  max acc e.Search.iteration)
                0 r.Search.trace
            in
            let eng' = Cost_engine.create ~workload () in
            let _ =
              Search.greedy_si ~jobs ~engine:eng'
                ~budget:(Budget.create ~max_iterations:completed ())
                ~workload schema
            in
            let rerun e =
              (Search.greedy_si ~engine:e ~workload schema).Search.engine
            in
            let a = rerun eng and b = rerun eng' in
            let what =
              Printf.sprintf "memo table equals the barrier state (-j %d)" jobs
            in
            check_int (what ^ ": misses") b.Cost_engine.misses
              a.Cost_engine.misses;
            check_int (what ^ ": hits") b.Cost_engine.hits a.Cost_engine.hits)
          [ 1; 4 ]);
    case "seam stats accumulate on parallel runs and reset" (fun () ->
        Search.seam_reset ();
        let workload = Imdb.Workloads.lookup in
        ignore
          (Search.greedy_si ~jobs:4
             ~budget:(Budget.create ~max_iterations:2 ())
             ~workload
             (Lazy.force annotated_imdb));
        let s = Search.seam_stats () in
        (* every pass fans out, on either backend *)
        check_bool "fan-outs counted" true (s.Search.s_fanouts > 0);
        check_bool "fan-out time sane" true
          (s.Search.s_t_fanout >= 0. && s.Search.s_t_merge >= 0.
         && s.Search.s_t_barrier_idle >= 0.);
        Search.seam_reset ();
        check_int "reset" 0 (Search.seam_stats ()).Search.s_fanouts);
    case "jobs:0 auto-detects and stays bit-identical" (fun () ->
        let workload = Imdb.Workloads.lookup in
        let run ~jobs =
          Search.greedy_si ~jobs ~budget:(Budget.create ~max_iterations:2 ())
            ~workload
            (Lazy.force annotated_imdb)
        in
        check_bit_identical "auto" (run ~jobs:1) (run ~jobs:0));
    case "full greedy_si run is jobs-invariant" (fun () ->
        let workload = Imdb.Workloads.mixed 0.5 in
        let run ~jobs =
          Search.greedy_si ~jobs ~workload (Lazy.force annotated_imdb)
        in
        let r1 = run ~jobs:1 in
        check_bit_identical "j2" r1 (run ~jobs:2);
        check_bit_identical "j4" r1 (run ~jobs:4));
    prop "greedy/beam are bit-identical for jobs=1 and jobs=4" ~count:6
      gen_workload run_determinism;
  ]
