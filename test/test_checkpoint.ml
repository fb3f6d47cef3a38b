(* Durable checkpoint/resume.  Two families of contracts:

   - the codec: encode/decode is the identity (statistics annotations
     and float bit-patterns included), the bytes are deterministic, and
     every damaged file — truncated, bit-flipped, wrong version, wrong
     magic — is rejected with [Checkpoint.Corrupt] and a one-line
     message, never a crash or a silent restart;

   - resume: stopping a search at any point and resuming the snapshot
     is bit-identical (cost, schema, trace, stopped reason, failure
     records) to never having stopped, for greedy and beam, for jobs 1
     and 2, warm or cold, including a double stop and faults injected
     before the snapshot. *)

open Legodb
open Test_util

let prop name ?(count = 30) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let prefix n l = List.filteri (fun i _ -> i < n) l
let tmp_ckpt () = Filename.temp_file "legodb_test" ".ckpt"

let fkey (f : Search.failure) =
  ( f.Search.f_iteration,
    Format.asprintf "%a" Space.pp_step f.Search.f_step,
    f.Search.f_stage,
    f.Search.f_class )

let same_failures a b = List.map fkey a = List.map fkey b

(* bit-identical including the stop reason and the failure records —
   the full resume contract, one notch stricter than Test_par's *)
let check_resumed name (full : Search.result) (resumed : Search.result) =
  Test_par.check_bit_identical name full resumed;
  check_bool (name ^ ": same stop reason") true
    (full.Search.stopped = resumed.Search.stopped);
  check_bool (name ^ ": same failure records") true
    (same_failures full.Search.failures resumed.Search.failures)

(* ---------------- codec ---------------- *)

(* ingredients for arbitrary states: schemas with statistics
   annotations (imdb), wildcards (section2), and none (books); every
   step constructor; float edge cases beyond what searches produce *)
let schema_pool =
  lazy
    (let annotated = Lazy.force annotated_imdb in
     let inl = Init.all_inlined annotated in
     let out = Init.all_outlined annotated in
     let nb =
       match Space.neighbors ~kinds:[ Space.K_outline ] inl with
       | (_, s) :: _ -> s
       | [] -> inl
     in
     [| inl; out; nb; books_schema; Imdb.Schema.section2 |])

let steps_pool =
  [|
    Space.Inline { tname = "A"; loc = [ 0; 1 ]; target = "B'" };
    Space.Outline { tname = "Show"; loc = []; tag = "aka" };
    Space.Union_dist { tname = "U"; loc = [ 2 ] };
    Space.Union_factor { tname = "U"; loc = [ 0; 0; 1 ] };
    Space.Rep_split { tname = "R"; loc = [ 1 ]; target = "R'Part1" };
    Space.Rep_merge { tname = "R"; loc = [] };
    Space.Wildcard { tname = "W"; loc = [ 3; 4 ]; tag = "w_tag" };
    Space.Union_opts { tname = "U"; loc = [ 5 ] };
  |]

let float_edges =
  [| 0.; -0.; infinity; neg_infinity; nan; 4.9e-324; Float.max_float; 0.1 |]

(* a deterministic state built from a seed plus generator-supplied
   floats and (arbitrary-byte) strings *)
let state_of (seed, floats, strs) =
  let rng = Random.State.make [| seed |] in
  let pick arr = arr.(Random.State.int rng (Array.length arr)) in
  let fl () =
    match floats with
    | [] -> pick float_edges
    | l -> List.nth l (Random.State.int rng (List.length l))
  in
  let str () =
    match strs with
    | [] -> "s"
    | l -> List.nth l (Random.State.int rng (List.length l))
  in
  let pool = Lazy.force schema_pool in
  let failure () =
    {
      Search.f_iteration = Random.State.int rng 10;
      f_step = pick steps_pool;
      f_stage = pick [| "mapping"; "translate"; "optimize"; "inject" |];
      f_class = str ();
      f_message = str ();
    }
  in
  let snapshot () =
    {
      Cost_engine.empty_snapshot with
      Cost_engine.evaluations = Random.State.int rng 500;
      hits = Random.State.int rng 500;
      t_optimize = fl ();
    }
  in
  let entry i =
    {
      Search.iteration = i;
      cost = fl ();
      step = (if Random.State.bool rng then Some (pick steps_pool) else None);
      tables = Random.State.int rng 40;
      engine = snapshot ();
      failures = List.init (Random.State.int rng 3) (fun _ -> failure ());
    }
  in
  let point =
    if Random.State.bool rng then
      Checkpoint.Greedy
        {
          g_schema = pick pool;
          g_cost = fl ();
          g_threshold = Random.State.float rng 0.5;
        }
    else
      Checkpoint.Beam
        {
          b_frontier =
            List.init
              (Random.State.int rng 3)
              (fun _ -> (pick pool, fl ()));
          b_best_schema = pick pool;
          b_best_cost = fl ();
          b_seen = List.init (Random.State.int rng 4) (fun _ -> str ());
          b_barren = Random.State.int rng 3;
          b_width = 1 + Random.State.int rng 6;
          b_patience = 1 + Random.State.int rng 4;
        }
  in
  {
    Checkpoint.strategy =
      pick [| "greedy"; "greedy_so"; "greedy_si"; "beam" |];
    kinds = List.filteri (fun i _ -> i <= seed mod 8) Space.all_kinds;
    max_iterations = Random.State.int rng 300;
    iteration = Random.State.int rng 50;
    evaluations = Random.State.int rng 5000;
    trace = List.init (1 + Random.State.int rng 3) entry;
    failures = List.init (Random.State.int rng 3) (fun _ -> failure ());
    point;
    cache = List.map (fun s -> (s, fl ())) (List.sort_uniq compare strs);
  }

let gen_state =
  QCheck2.Gen.(
    map state_of
      (triple (int_range 0 10_000)
         (list_size (int_range 0 4)
            (oneof [ float; oneofl (Array.to_list float_edges) ]))
         (list_size (int_range 0 3) (string_size ~gen:char (int_range 0 12)))))

(* a moderately rich image for the damage tests *)
let image = lazy (Checkpoint.encode (state_of (7, [ 0.125; nan ], [ "k\n\x00" ])))

let flip_bit s pos bit =
  let b = Bytes.of_string s in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
  Bytes.to_string b

(* damaged images must fail with Corrupt and a one-line message — any
   other outcome (success, another exception) fails the property *)
let rejects ?expect img =
  match Checkpoint.decode img with
  | _ -> false
  | exception Checkpoint.Corrupt m -> (
      (not (String.contains m '\n'))
      && match expect with None -> true | Some sub -> contains m sub)
  | exception _ -> false

let suite =
  [
    prop "codec round-trips arbitrary states bit-exactly" gen_state (fun st ->
        let st' = Checkpoint.decode (Checkpoint.encode st) in
        Checkpoint.equal st st'
        (* and the bytes are deterministic: re-encoding the decoded
           state reproduces the image *)
        && String.equal (Checkpoint.encode st) (Checkpoint.encode st'));
    prop "any single bit flip is rejected as Corrupt" ~count:60
      QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 0 7))
      (fun (pos, bit) ->
        let img = Lazy.force image in
        rejects (flip_bit img (pos mod String.length img) bit));
    prop "any truncation is rejected as Corrupt" ~count:40
      QCheck2.Gen.(int_range 0 1_000_000)
      (fun n ->
        let img = Lazy.force image in
        rejects (String.sub img 0 (n mod String.length img)));
    case "damage classes get distinct one-line errors" (fun () ->
        let img = Lazy.force image in
        let payload =
          String.sub img
            (String.index img '\n' + 1)
            (String.length img - String.index img '\n' - 1)
        in
        (* forged headers carry a *valid* CRC, so each case isolates
           one check: magic, then version, then length, then checksum *)
        let forge magic version =
          Printf.sprintf "%s %d %08lx %d\n%s" magic version
            (Checkpoint.crc32 payload) (String.length payload) payload
        in
        check_bool "wrong magic" true
          (rejects ~expect:"magic" (forge "NOTADB-CKPT" 1));
        check_bool "wrong version" true
          (rejects ~expect:"version" (forge "LEGODB-CKPT" 99));
        check_bool "truncated" true
          (rejects ~expect:"truncated" (String.sub img 0 200));
        check_bool "bit flip in payload" true
          (rejects ~expect:"checksum" (flip_bit img (String.length img - 5) 0));
        check_bool "empty file" true (rejects ""));
    case "save is atomic and loads back equal" (fun () ->
        let st = state_of (42, [ 1.5 ], [ "k" ]) in
        let path = tmp_ckpt () in
        Checkpoint.save ~path st;
        check_bool "no tmp file left" false (Sys.file_exists (path ^ ".tmp"));
        check_bool "loads equal" true (Checkpoint.equal st (Checkpoint.load path));
        (* overwriting an existing snapshot also goes through the
           tmp+rename path *)
        let st2 = state_of (43, [ 2.5 ], [ "j" ]) in
        Checkpoint.save ~path st2;
        check_bool "overwrite loads the new state" true
          (Checkpoint.equal st2 (Checkpoint.load path));
        Sys.remove path);
    (* ---------------- crash–resume differential ---------------- *)
    case "greedy stop-at-k then resume is bit-identical (jobs 1 and 2)"
      (fun () ->
        let workload = Imdb.Workloads.lookup in
        let schema = Lazy.force annotated_imdb in
        let full = Search.greedy_si ~max_iterations:3 ~workload schema in
        List.iter
          (fun jobs ->
            List.iter
              (fun k ->
                let path = tmp_ckpt () in
                let stopped =
                  Search.greedy_si ~max_iterations:3 ~jobs
                    ~budget:(Budget.create ~max_iterations:k ())
                    ~checkpoint:(path, 1) ~workload schema
                in
                check_string
                  (Printf.sprintf "j%d k%d stops on iterations" jobs k)
                  "iterations"
                  (Search.stopped_string stopped.Search.stopped);
                check_bool "stopped run is a prefix" true
                  (Test_par.same_trace stopped.Search.trace
                     (prefix (k + 1) full.Search.trace));
                let resumed = Search.resume ~jobs ~workload path in
                check_resumed
                  (Printf.sprintf "greedy j%d k%d" jobs k)
                  full resumed;
                Sys.remove path)
              [ 1; 2 ])
          [ 1; 2 ]);
    case "greedy evaluation-budget stop mid-iteration resumes exactly"
      (fun () ->
        (* the abandoned iteration drew a nondeterministic number of
           tickets; the snapshot must hold the barrier count, so the
           resumed run re-runs that iteration from scratch *)
        let workload = Imdb.Workloads.lookup in
        let schema = Lazy.force annotated_imdb in
        let full = Search.greedy_si ~max_iterations:3 ~workload schema in
        List.iter
          (fun evals ->
            let path = tmp_ckpt () in
            let stopped =
              Search.greedy_si ~max_iterations:3
                ~budget:(Budget.create ~max_evaluations:evals ())
                ~checkpoint:(path, 1) ~workload schema
            in
            check_string "stops on the evaluation budget" "cost_budget"
              (Search.stopped_string stopped.Search.stopped);
            let resumed = Search.resume ~workload path in
            check_resumed (Printf.sprintf "evals=%d" evals) full resumed;
            Sys.remove path)
          [ 7; 30 ]);
    case "beam stop-at-k then resume is bit-identical (jobs 1 and 2)"
      (fun () ->
        let workload = Imdb.Workloads.lookup in
        let start = Init.all_inlined (Lazy.force annotated_imdb) in
        let run ?jobs ?budget ?checkpoint () =
          Search.beam ?jobs ?budget ?checkpoint ~width:3 ~patience:1
            ~max_iterations:3 ~kinds:[ Space.K_outline ] ~workload start
        in
        let full = run () in
        List.iter
          (fun jobs ->
            let path = tmp_ckpt () in
            let _ =
              run ~jobs
                ~budget:(Budget.create ~max_iterations:1 ())
                ~checkpoint:(path, 1) ()
            in
            let resumed = Search.resume ~jobs ~workload path in
            check_resumed (Printf.sprintf "beam j%d" jobs) full resumed;
            (* and an evaluation-budget stop mid-level *)
            let _ =
              run ~jobs
                ~budget:(Budget.create ~max_evaluations:9 ())
                ~checkpoint:(path, 1) ()
            in
            let resumed =
              Search.resume ~jobs ~workload path
            in
            check_resumed (Printf.sprintf "beam j%d evals" jobs) full resumed;
            Sys.remove path)
          [ 1; 2 ]);
    case "double stop/resume equals one uninterrupted run" (fun () ->
        let workload = Imdb.Workloads.lookup in
        let schema = Lazy.force annotated_imdb in
        let full = Search.greedy_si ~max_iterations:3 ~workload schema in
        let path = tmp_ckpt () in
        let _ =
          Search.greedy_si ~max_iterations:3
            ~budget:(Budget.create ~max_iterations:1 ())
            ~checkpoint:(path, 1) ~workload schema
        in
        (* second leg: resume, stop again one iteration later (the cap
           is absolute, so max_iterations 2 runs exactly one more) *)
        let leg2 =
          Search.resume
            ~budget:(Budget.create ~max_iterations:2 ())
            ~checkpoint:(path, 1) ~workload path
        in
        check_string "second leg stops on iterations" "iterations"
          (Search.stopped_string leg2.Search.stopped);
        check_int "second leg completed one more iteration" 3
          (List.length leg2.Search.trace);
        let final = Search.resume ~workload path in
        check_resumed "double resume" full final;
        Sys.remove path);
    case "warm and cold resume are bit-identical" (fun () ->
        let workload = Imdb.Workloads.lookup in
        let schema = Lazy.force annotated_imdb in
        let full = Search.greedy_si ~max_iterations:3 ~workload schema in
        let path = tmp_ckpt () in
        let _ =
          Search.greedy_si ~max_iterations:3
            ~budget:(Budget.create ~max_iterations:1 ())
            ~checkpoint:(path, 1) ~workload schema
        in
        let warm = Search.resume ~workload path in
        let cold = Search.resume ~warm:false ~workload path in
        check_resumed "warm" full warm;
        check_resumed "cold" full cold;
        (* the seeded memo table only changes the accounting: a warm
           resume recomputes no more statements than a cold one *)
        check_bool "warm misses <= cold misses" true
          (warm.Search.engine.Cost_engine.misses
          <= cold.Search.engine.Cost_engine.misses);
        Sys.remove path);
    case "pre-snapshot injected faults are not replayed on resume"
      (fun () ->
        let workload = Imdb.Workloads.lookup in
        let schema = Init.all_inlined (Lazy.force annotated_imdb) in
        let init_s = Xschema.to_string schema in
        let inject s =
          (not (String.equal s init_s)) && Hashtbl.hash s mod 3 = 0
        in
        let kinds = [ Space.K_outline ] in
        let mk_eng () = Cost_engine.create ~workload ~inject () in
        let full =
          Search.greedy ~kinds ~max_iterations:3 ~engine:(mk_eng ())
            ~workload schema
        in
        check_bool "fixture injects faults" true (full.Search.failures <> []);
        let path = tmp_ckpt () in
        let stopped =
          Search.greedy ~kinds ~max_iterations:3 ~engine:(mk_eng ())
            ~budget:(Budget.create ~max_iterations:1 ())
            ~checkpoint:(path, 1) ~workload schema
        in
        (* the resumed engine re-injects deterministically; faults from
           completed iterations come from the snapshot and must appear
           exactly once *)
        let resumed = Search.resume ~engine:(mk_eng ()) ~workload path in
        check_resumed "inject" full resumed;
        check_int "no duplicated failure records"
          (List.length full.Search.failures)
          (List.length resumed.Search.failures);
        check_bool "snapshot-era faults preserved" true
          (same_failures stopped.Search.failures
             (prefix
                (List.length stopped.Search.failures)
                resumed.Search.failures));
        (* PR 3's fault-equivalence oracle: the resumed search selects
           exactly what a search over the surviving candidates would *)
        let eng = Cost_engine.create ~workload () in
        let rec go it s c =
          if it >= 3 then (s, c)
          else
            let survivors =
              List.filter
                (fun (_, s') -> not (inject (Xschema.to_string s')))
                (Space.neighbors ~kinds s)
            in
            let best =
              List.fold_left
                (fun best (_, s') ->
                  match Cost_engine.cost_opt eng s' with
                  | None -> best
                  | Some c' -> (
                      match best with
                      | Some (_, bc) when bc <= c' -> best
                      | _ -> Some (s', c')))
                None survivors
            in
            match best with
            | Some (s', c') when c' < c -> go (it + 1) s' c'
            | _ -> (s, c)
        in
        let ref_schema, ref_cost = go 0 schema (Cost_engine.cost eng schema) in
        check_string "oracle schema"
          (Xschema.to_string ref_schema)
          (Xschema.to_string resumed.Search.schema);
        check_bool "oracle cost" true
          (Float.equal ref_cost resumed.Search.cost);
        Sys.remove path);
    prop "stop anywhere, resume: bit-identical for random budgets" ~count:5
      QCheck2.Gen.(
        triple bool (oneofl [ 1; 2 ]) (int_range 1 40))
      (fun (use_beam, jobs, evals) ->
        let workload = Imdb.Workloads.lookup in
        let schema = Lazy.force annotated_imdb in
        let run ?budget ?checkpoint ~jobs () =
          if use_beam then
            Search.beam ~jobs ?budget ?checkpoint ~width:3 ~patience:1
              ~max_iterations:2 ~kinds:[ Space.K_outline ] ~workload
              (Init.all_inlined schema)
          else
            Search.greedy_si ~jobs ?budget ?checkpoint ~max_iterations:3
              ~workload schema
        in
        let full = run ~jobs:1 () in
        let path = tmp_ckpt () in
        let _ =
          run ~jobs
            ~budget:(Budget.create ~max_evaluations:evals ())
            ~checkpoint:(path, 1) ()
        in
        let resumed = Search.resume ~jobs ~workload path in
        Sys.remove path;
        Float.equal full.Search.cost resumed.Search.cost
        && String.equal
             (Xschema.to_string full.Search.schema)
             (Xschema.to_string resumed.Search.schema)
        && Test_par.same_trace full.Search.trace resumed.Search.trace
        && full.Search.stopped = resumed.Search.stopped
        && same_failures full.Search.failures resumed.Search.failures);
    (* ---------------- per-query cost timeout ---------------- *)
    case "per-query timeout faults the configuration as optimize" (fun () ->
        let workload = Imdb.Workloads.lookup in
        let schema = Init.all_inlined (Lazy.force annotated_imdb) in
        (* fake clock: 0.5 ms per reading, so every statement "takes"
           0.5 ms — over a 0.1 ms limit, under a 1 s one *)
        let mk limit =
          let t = ref 0. in
          Cost_engine.create ~workload ?per_query_timeout_ms:limit
            ~clock:(fun () ->
              t := !t +. 0.0005;
              !t)
            ()
        in
        (match Cost_engine.cost_result (mk (Some 1000.)) schema with
        | Ok _ -> ()
        | Error f -> Alcotest.failf "unexpected fault: %s" f.Cost_engine.message);
        (match Cost_engine.cost_result (mk None) schema with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "no timeout set, nothing may fault");
        let slow = mk (Some 0.1) in
        (match Cost_engine.cost_result slow schema with
        | Ok _ -> Alcotest.fail "expected a Cost_timeout fault"
        | Error f ->
            check_string "stage" "optimize" f.Cost_engine.stage;
            check_string "class" "Cost_timeout" f.Cost_engine.exn_class;
            check_bool "message names the overrun" true
              (contains f.Cost_engine.message "timeout"));
        check_int "fault counted" 1
          (Cost_engine.snapshot slow).Cost_engine.faults);
    case "a pathological query charges one fault, not the whole budget"
      (fun () ->
        let workload = Imdb.Workloads.lookup in
        let schema = Lazy.force annotated_imdb in
        let inlined = Init.all_inlined schema in
        (* the clock is tame while the initial configuration is costed,
           then every statement costing overruns the 5 ms limit *)
        let t = ref 0. in
        let armed = ref false in
        let eng =
          Cost_engine.create ~workload ~per_query_timeout_ms:5.
            ~clock:(fun () ->
              t := !t +. (if !armed then 0.02 else 1e-9);
              !t)
            ()
        in
        ignore (Cost_engine.cost eng inlined);
        armed := true;
        let b = Budget.create ~max_evaluations:1000 () in
        let r = Search.greedy_si ~budget:b ~engine:eng ~workload schema in
        (* every neighbor faults on its first fresh statement, so the
           search converges on the initial configuration immediately
           instead of burning wall-clock between ?check polls *)
        check_string "reason" "converged"
          (Search.stopped_string r.Search.stopped);
        check_string "initial configuration kept"
          (Xschema.to_string inlined)
          (Xschema.to_string r.Search.schema);
        check_bool "failures recorded" true (r.Search.failures <> []);
        List.iter
          (fun (f : Search.failure) ->
            check_string "stage" "optimize" f.Search.f_stage;
            check_string "class" "Cost_timeout" f.Search.f_class)
          r.Search.failures;
        check_int "faults counted in the snapshot"
          (List.length r.Search.failures)
          r.Search.engine.Cost_engine.faults;
        check_bool "budget barely touched" true (Budget.evaluations b < 100));
    case "version-1 images are refused" (fun () ->
        (* version 1 persisted text fingerprints (beam's blacklist, the
           memo keys) that never match the byte ones: resuming one would
           re-keep blacklisted configurations *)
        let img = Lazy.force image in
        let nl = String.index img '\n' in
        let payload = String.sub img (nl + 1) (String.length img - nl - 1) in
        check_bool "version 1" true
          (rejects ~expect:"version"
             (Printf.sprintf "LEGODB-CKPT 1 %08lx %d\n%s"
                (Checkpoint.crc32 payload) (String.length payload) payload)));
  ]
