(* The incremental cost engine: pure memoization, so a warm engine and
   the uncached reference must agree bit for bit on every configuration,
   whatever workload and whatever sequence of rewriting steps led
   there. *)

open Legodb
open Test_util

let all_queries = [| 8; 9; 11; 12; 13; 15; 16; 17 |]

let insert_actor =
  lazy (Xq_parse.parse_update ~name:"new-actor" "INSERT imdb/actor")

let prop name ?(count = 50) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* one random trajectory: a sub-workload, a start configuration and a
   random walk through the rewriting space; every visited configuration
   is costed twice through one shared engine (cold, then cached) and
   once through the uncached reference *)
let gen_trajectory =
  QCheck2.Gen.(
    triple
      (list_size (int_range 1 4) (int_range 0 (Array.length all_queries - 1)))
      (int_range 0 0xFFFF) bool)

let run_trajectory (picks, seed, with_updates) =
  let queries =
    List.sort_uniq compare picks
    |> List.map (fun i -> Imdb.Queries.q all_queries.(i))
  in
  let workload = Workload.of_queries queries in
  let updates = if with_updates then [ (Lazy.force insert_actor, 3.) ] else [] in
  let eng = Cost_engine.create ~updates ~workload () in
  let rng = Random.State.make [| seed |] in
  let check schema =
    let reference =
      match Search.pschema_cost ~updates ~workload schema with
      | c -> Some c
      | exception Search.Cost_error _ -> None
    in
    let cached = Cost_engine.cost_opt eng schema in
    let again = Cost_engine.cost_opt eng schema in
    match (reference, cached, again) with
    | Some r, Some c, Some c' ->
        if not (Float.equal r c && Float.equal c c') then
          QCheck2.Test.fail_reportf
            "engine diverges from reference: %h vs %h (revisit %h)" c r c'
    | None, None, None -> ()
    | _ ->
        QCheck2.Test.fail_reportf
          "engine and reference disagree on costability"
  in
  let rec walk schema n =
    check schema;
    if n > 0 then
      match Space.neighbors schema with
      | [] -> ()
      | nb ->
          (* re-check a random already-visited neighbour too: exercises
             cache hits on configurations one step away *)
          let pick l = List.nth l (Random.State.int rng (List.length l)) in
          check (snd (pick nb));
          walk (snd (pick nb)) (n - 1)
  in
  let start =
    if Random.State.bool rng then Init.all_inlined (Lazy.force annotated_imdb)
    else Init.all_outlined (Lazy.force annotated_imdb)
  in
  walk start 4;
  (* the walk revisits configurations on purpose, so the cache must
     have been exercised *)
  (Cost_engine.snapshot eng).Cost_engine.hits > 0

let suite =
  [
    prop "cached cost = cold cost on random trajectories" ~count:50
      gen_trajectory run_trajectory;
    case "oracle mode accepts a full greedy_si run" (fun () ->
        (* oracle mode recomputes every hit and raises on the first
           cached float that differs from a fresh evaluation *)
        let workload = Imdb.Workloads.mixed 0.5 in
        let eng = Cost_engine.create ~oracle:true ~workload () in
        let r =
          Search.greedy_si ~engine:eng ~workload
            (Lazy.force annotated_imdb)
        in
        let r_ref =
          Search.greedy_si ~memoize:false ~workload
            (Lazy.force annotated_imdb)
        in
        check_bool "same cost as the uncached search" true
          (Float.equal r.Search.cost r_ref.Search.cost);
        check_bool "cache was exercised" true
          (Cost_engine.hit_rate r.Search.engine > 0.5));
    case "a shared engine makes a re-run all hits" (fun () ->
        let workload = Imdb.Workloads.lookup in
        let eng = Cost_engine.create ~workload () in
        let r1 = Search.greedy_si ~engine:eng ~workload (Lazy.force annotated_imdb) in
        let r2 = Search.greedy_si ~engine:eng ~workload (Lazy.force annotated_imdb) in
        check_bool "identical cost" true (Float.equal r1.Search.cost r2.Search.cost);
        check_bool "re-run never misses" true
          (r2.Search.engine.Cost_engine.misses = 0
          && r2.Search.engine.Cost_engine.hits > 0));
    case "step-order-independent keys: beam revisits hit" (fun () ->
        let workload = Imdb.Workloads.publish in
        let r = Search.beam ~workload (Init.all_inlined (Lazy.force annotated_imdb)) in
        check_bool "beam hit rate above one half" true
          (Cost_engine.hit_rate r.Search.engine > 0.5));
    case "memoize:false still reports engine totals" (fun () ->
        let workload = Imdb.Workloads.publish in
        let r =
          Search.greedy_si ~memoize:false ~workload (Lazy.force annotated_imdb)
        in
        let s = r.Search.engine in
        check_bool "no cache traffic" true (s.Cost_engine.hits = 0 && s.Cost_engine.misses = 0);
        check_bool "configurations still counted" true (s.Cost_engine.evaluations > 0));
    case "greedy_si forwards max_iterations" (fun () ->
        let workload = Imdb.Workloads.mixed 0.5 in
        let r =
          Search.greedy_si ~max_iterations:0 ~workload
            (Lazy.force annotated_imdb)
        in
        check_int "no iterations taken" 1 (List.length r.Search.trace));
    case "greedy_so forwards kinds" (fun () ->
        (* all-outlined with only outline steps available: nothing to
           do, so the initial configuration must be returned *)
        let workload = Imdb.Workloads.publish in
        let r =
          Search.greedy_so
            ~kinds:[ Space.K_outline ]
            ~workload
            (Lazy.force annotated_imdb)
        in
        check_int "no inlining happened" 1 (List.length r.Search.trace));
    case "oracle mode accepts a full beam run" (fun () ->
        (* beam costs prepared candidates: every hit is recomputed from
           the prepared mapping, with and without workload indexes
           (which fingerprint the indexed catalog instead) *)
        let workload = Imdb.Workloads.mixed 0.5 in
        let start = Init.all_inlined (Lazy.force annotated_imdb) in
        List.iter
          (fun workload_indexes ->
            let eng =
              Cost_engine.create ~oracle:true ~workload_indexes ~workload ()
            in
            let r = Search.beam ~engine:eng ~workload start in
            check_bool "cache was exercised" true
              (Cost_engine.hit_rate r.Search.engine > 0.5);
            if not workload_indexes then
              check_string "the pinned design cost" "0x1.9b56cd166e35ep+13"
                (Printf.sprintf "%h" r.Search.cost))
          [ false; true ]);
  ]
