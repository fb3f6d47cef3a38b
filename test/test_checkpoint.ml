(* Durable checkpoint/resume.  Two families of contracts:

   - the codec: encode/decode is the identity (statistics annotations
     and float bit-patterns included), the bytes are deterministic, and
     every damaged file — truncated, bit-flipped, wrong version, wrong
     magic — is rejected with [Checkpoint.Corrupt] and a one-line
     message, never a crash or a silent restart;

   - resume: stopping a search at any point and resuming the snapshot
     is bit-identical (cost, schema, trace, stopped reason, failure
     records) to never having stopped, for greedy and beam, for jobs 1
     and 2, including a double stop and faults injected before the
     snapshot; a snapshot carries no memo table, so every resume
     starts from an empty one. *)

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
        (* the image writes every field, floats as %h: the decoded
           state re-encodes to the same bytes only if it is the state *)
        let img = Checkpoint.encode st in
        String.equal img (Checkpoint.encode (Checkpoint.decode img)));
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
            (Wire.crc32 payload) (String.length payload) payload
        in
        check_bool "wrong magic" true
          (rejects ~expect:"magic" (forge "NOTADB-CKPT" 1));
        check_bool "wrong version" true
          (rejects ~expect:"version" (forge "LEGODB-CKPT" 99));
        check_bool "truncated" true
          (rejects ~expect:"truncated" (String.sub img 0 200));
        check_bool "bit flip in payload" true
          (rejects ~expect:"checksum" (flip_bit img (String.length img - 5) 0));
        check_bool "empty file" true (rejects "");
        (* a well-framed payload whose greedy threshold no search
           accepts *)
        let st = state_of (7, [], []) in
        let point =
          Checkpoint.Greedy
            {
              g_schema = (Lazy.force schema_pool).(0);
              g_cost = 1.;
              g_threshold = -1.;
            }
        in
        check_bool "threshold outside [0, 1)" true
          (rejects ~expect:"threshold"
             (Checkpoint.encode { st with Checkpoint.point }));
        (* and a beam point whose width no search accepts *)
        let point =
          Checkpoint.Beam
            {
              b_frontier = [];
              b_best_schema = (Lazy.force schema_pool).(0);
              b_best_cost = 1.;
              b_seen = [];
              b_barren = 0;
              b_width = 0;
              b_patience = 3;
            }
        in
        check_bool "beam width below 1" true
          (rejects ~expect:"width"
             (Checkpoint.encode { st with Checkpoint.point })));
    case "save is atomic and loads back equal" (fun () ->
        let st = state_of (42, [ 1.5 ], [ "k" ]) in
        let path = tmp_ckpt () in
        Checkpoint.save ~path st;
        check_bool "no tmp file left" false (Sys.file_exists (path ^ ".tmp"));
        check_string "loads equal" (Checkpoint.encode st)
          (Checkpoint.encode (Checkpoint.load path));
        (* overwriting an existing snapshot also goes through the
           tmp+rename path *)
        let st2 = state_of (43, [ 2.5 ], [ "j" ]) in
        Checkpoint.save ~path st2;
        check_string "overwrite loads the new state" (Checkpoint.encode st2)
          (Checkpoint.encode (Checkpoint.load path));
        Sys.remove path);
    (* ---------------- crash–resume differential ---------------- *)
    case "greedy stop-at-k then resume is bit-identical (jobs 1 and 2)"
      (fun () ->
        let workload = Imdb.Workloads.lookup in
        let schema = Lazy.force annotated_imdb in
        let full =
          Search.greedy_si ~budget:(Budget.create ~max_iterations:3 ())
            ~workload schema
        in
        List.iter
          (fun jobs ->
            List.iter
              (fun k ->
                let path = tmp_ckpt () in
                let stopped =
                  Search.greedy_si ~jobs
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
                let resumed =
                  Search.resume ~jobs
                    ~budget:(Budget.create ~max_iterations:3 ())
                    ~workload path
                in
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
        let full =
          Search.greedy_si ~budget:(Budget.create ~max_iterations:3 ())
            ~workload schema
        in
        List.iter
          (fun evals ->
            let path = tmp_ckpt () in
            let stopped =
              Search.greedy_si
                ~budget:
                  (Budget.create ~max_iterations:3 ~max_evaluations:evals ())
                ~checkpoint:(path, 1) ~workload schema
            in
            check_string "stops on the evaluation budget" "cost_budget"
              (Search.stopped_string stopped.Search.stopped);
            let resumed =
              Search.resume ~budget:(Budget.create ~max_iterations:3 ())
                ~workload path
            in
            check_resumed (Printf.sprintf "evals=%d" evals) full resumed;
            Sys.remove path)
          [ 7; 30 ]);
    case "beam stop-at-k then resume is bit-identical (jobs 1 and 2)"
      (fun () ->
        let workload = Imdb.Workloads.lookup in
        let start = Init.all_inlined (Lazy.force annotated_imdb) in
        let run ?jobs ?(max_iterations = 3) ?max_evaluations ?checkpoint () =
          Search.beam ?jobs
            ~budget:(Budget.create ~max_iterations ?max_evaluations ())
            ?checkpoint ~width:3 ~patience:1 ~kinds:[ Space.K_outline ]
            ~workload start
        in
        let full = run () in
        List.iter
          (fun jobs ->
            let path = tmp_ckpt () in
            let _ = run ~jobs ~max_iterations:1 ~checkpoint:(path, 1) () in
            let resumed =
              Search.resume ~jobs ~budget:(Budget.create ~max_iterations:3 ())
                ~workload path
            in
            check_resumed (Printf.sprintf "beam j%d" jobs) full resumed;
            (* and an evaluation-budget stop mid-level *)
            let _ = run ~jobs ~max_evaluations:9 ~checkpoint:(path, 1) () in
            let resumed =
              Search.resume ~jobs ~budget:(Budget.create ~max_iterations:3 ())
                ~workload path
            in
            check_resumed (Printf.sprintf "beam j%d evals" jobs) full resumed;
            Sys.remove path)
          [ 1; 2 ]);
    case "double stop/resume equals one uninterrupted run" (fun () ->
        let workload = Imdb.Workloads.lookup in
        let schema = Lazy.force annotated_imdb in
        let full =
          Search.greedy_si ~budget:(Budget.create ~max_iterations:3 ())
            ~workload schema
        in
        let path = tmp_ckpt () in
        let _ =
          Search.greedy_si
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
        let final =
          Search.resume ~budget:(Budget.create ~max_iterations:3 ())
            ~workload path
        in
        check_resumed "double resume" full final;
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
          Search.greedy ~kinds ~engine:(mk_eng ())
            ~budget:(Budget.create ~max_iterations:3 ())
            ~workload schema
        in
        check_bool "fixture injects faults" true (full.Search.failures <> []);
        let path = tmp_ckpt () in
        let stopped =
          Search.greedy ~kinds ~engine:(mk_eng ())
            ~budget:(Budget.create ~max_iterations:1 ())
            ~checkpoint:(path, 1) ~workload schema
        in
        (* the resumed engine re-injects deterministically; faults from
           completed iterations come from the snapshot and must appear
           exactly once *)
        let resumed =
          Search.resume ~engine:(mk_eng ())
            ~budget:(Budget.create ~max_iterations:3 ())
            ~workload path
        in
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
                  match Cost_engine.cost_result eng s' with
                  | Error _ -> best
                  | Ok c' -> (
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
        let max_iterations = if use_beam then 2 else 3 in
        let run ?max_evaluations ?checkpoint ~jobs () =
          let budget = Budget.create ~max_iterations ?max_evaluations () in
          if use_beam then
            Search.beam ~jobs ~budget ?checkpoint ~width:3 ~patience:1
              ~kinds:[ Space.K_outline ] ~workload
              (Init.all_inlined schema)
          else Search.greedy_si ~jobs ~budget ?checkpoint ~workload schema
        in
        let full = run ~jobs:1 () in
        let path = tmp_ckpt () in
        let _ =
          run ~jobs ~max_evaluations:evals ~checkpoint:(path, 1) ()
        in
        let resumed =
          Search.resume ~jobs ~budget:(Budget.create ~max_iterations ())
            ~workload path
        in
        Sys.remove path;
        Float.equal full.Search.cost resumed.Search.cost
        && String.equal
             (Xschema.to_string full.Search.schema)
             (Xschema.to_string resumed.Search.schema)
        && Test_par.same_trace full.Search.trace resumed.Search.trace
        && full.Search.stopped = resumed.Search.stopped
        && same_failures full.Search.failures resumed.Search.failures);
    case "version-1 images are refused" (fun () ->
        (* version 1 persisted text fingerprints (beam's blacklist, the
           memo keys) that never match the byte ones: resuming one would
           re-keep blacklisted configurations.  Version 2 carried the
           memo table, which a snapshot no longer holds *)
        let img = Lazy.force image in
        let nl = String.index img '\n' in
        let payload = String.sub img (nl + 1) (String.length img - nl - 1) in
        List.iter
          (fun v ->
            check_bool
              (Printf.sprintf "version %d" v)
              true
              (rejects ~expect:"this build reads 3"
                 (Printf.sprintf "LEGODB-CKPT %d %08lx %d\n%s" v
                    (Wire.crc32 payload) (String.length payload)
                    payload)))
          [ 1; 2 ]);
    case "resume keeps the snapshot's iteration cap" (fun () ->
        (* a fresh search records the 200-iteration backstop; a resumed
           one stops at the cap its snapshot holds, here one iteration
           past the barrier a budget stopped it at *)
        let workload = Imdb.Workloads.lookup in
        let schema = Lazy.force annotated_imdb in
        let path = tmp_ckpt () in
        let (_ : Search.result) =
          Search.greedy_si ~budget:(Budget.create ~max_iterations:1 ())
            ~checkpoint:(path, 1) ~workload schema
        in
        let st = Checkpoint.load path in
        check_int "a fresh search records the backstop" 200
          st.Checkpoint.max_iterations;
        check_int "stopped after one iteration" 1 st.Checkpoint.iteration;
        Checkpoint.save ~path { st with Checkpoint.max_iterations = 2 };
        let resumed = Search.resume ~workload path in
        check_string "stops on the snapshot's cap" "iterations"
          (Search.stopped_string resumed.Search.stopped);
        check_int "after exactly that many iterations" 3
          (List.length resumed.Search.trace);
        let capped =
          Search.greedy_si ~budget:(Budget.create ~max_iterations:2 ())
            ~workload schema
        in
        check_resumed "the snapshot's cap" capped resumed;
        Sys.remove path);
  ]
