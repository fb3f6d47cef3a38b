(* Benchmark driver: `dune exec bench/main.exe -- [-j N] [--smoke]
   [experiment ...]` runs the named experiments, or all of them: the
   paper's evaluation (fig6 fig10 fig11 fig13 fig14 table2), ablation,
   the gated perf experiments (search_perf optimizer_perf budget_sweep
   checkpoint_resume serve_perf) and micro, a Bechamel suite.  [-j N]
   sets their parallel jobs; [--smoke] trims each perf experiment to
   its CI check, which writes no BENCH_*.json.  An unknown name exits
   2 before any experiment runs. *)

open Legodb

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  print_endline "\nMicro-benchmarks (Bechamel)\n===========================";
  let doc = Imdb.Gen.generate Imdb.Gen.default in
  let doc_text = Xml.to_string doc in
  let stats = Collector.collect doc in
  let annotated = Annotate.schema stats Imdb.Schema.schema in
  let inlined = Init.all_inlined annotated in
  let m =
    match Mapping.of_pschema inlined with
    | Ok m -> m
    | Error es -> failwith (String.concat "; " es)
  in
  let db = Storage.freeze (Shred.shred m doc) in
  let q16 = Xq_translate.translate m (Imdb.Queries.q 16) in
  let cat = Storage.catalog db in
  let q16_plans =
    List.map
      (fun (b : Logical.block) ->
        ((Optimizer.optimize_block cat b).Optimizer.plan, b.Logical.out))
      q16.Logical.blocks
  in
  let workload = Imdb.Workloads.lookup in
  let open Bechamel in
  let open Toolkit in
  let tests =
    Test.make_grouped ~name:"legodb"
      [
        Test.make ~name:"xml-parse (5900 elems)"
          (Staged.stage (fun () -> ignore (Xml_parse.parse_string doc_text)));
        Test.make ~name:"validate"
          (Staged.stage (fun () ->
               ignore (Validate.document Imdb.Schema.schema doc)));
        Test.make ~name:"collect-stats"
          (Staged.stage (fun () -> ignore (Collector.collect doc)));
        Test.make ~name:"shred"
          (Staged.stage (fun () -> ignore (Shred.shred m doc)));
        Test.make ~name:"publish-document"
          (Staged.stage (fun () -> ignore (Publish.document db m)));
        Test.make ~name:"translate-q13"
          (Staged.stage (fun () ->
               ignore (Xq_translate.translate m (Imdb.Queries.q 13))));
        Test.make ~name:"optimize-q13"
          (Staged.stage (fun () ->
               let q = Xq_translate.translate m (Imdb.Queries.q 13) in
               ignore (Optimizer.query_cost cat q)));
        Test.make ~name:"execute-q16"
          (Staged.stage (fun () -> ignore (Executor.run_query db q16_plans)));
        Test.make ~name:"pschema-cost(lookup)"
          (Staged.stage (fun () ->
               ignore (Search.pschema_cost ~workload inlined)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> e
          | _ -> Float.nan
        in
        (name, est) :: acc)
      results []
  in
  List.iter
    (fun (name, est) ->
      if Float.is_nan est then Printf.printf "%-42s (no estimate)\n" name
      else if est > 1e6 then Printf.printf "%-42s %10.2f ms/run\n" name (est /. 1e6)
      else if est > 1e3 then Printf.printf "%-42s %10.2f us/run\n" name (est /. 1e3)
      else Printf.printf "%-42s %10.0f ns/run\n" name est)
    (List.sort compare rows)

let experiments ~jobs ~smoke =
  [
    ("fig6", Experiments.fig6);
    ("fig10", Experiments.fig10);
    ("fig11", fun () -> Experiments.fig11 ());
    ("fig13", Experiments.fig13);
    ("fig14", Experiments.fig14);
    ("table2", Experiments.table2);
    ("ablation", Experiments.ablation);
    ("search_perf", fun () -> Experiments.search_perf ~jobs ~smoke ());
    ("optimizer_perf", fun () -> Experiments.optimizer_perf ~jobs ~smoke ());
    ("budget_sweep", fun () -> Experiments.budget_sweep ~jobs ~smoke ());
    ("checkpoint_resume", fun () -> Experiments.checkpoint_resume ~jobs ~smoke ());
    ("serve_perf", fun () -> Experiments.serve_perf ~jobs ~smoke ());
    ("micro", micro);
  ]

let () =
  let rec parse (names, jobs, smoke) = function
    | [] -> (List.rev names, jobs, smoke)
    | "-j" :: n :: rest when int_of_string_opt n <> None ->
        parse (names, int_of_string n, smoke) rest
    | "--smoke" :: rest -> parse (names, jobs, true) rest
    | x :: rest -> parse (x :: names, jobs, smoke) rest
  in
  let names, jobs, smoke =
    parse ([], 1, false) (List.tl (Array.to_list Sys.argv))
  in
  let experiments = experiments ~jobs ~smoke in
  let usage =
    Printf.sprintf
      "usage: main.exe [-j N] [--smoke] [experiment ...]\nexperiments: %s"
      (String.concat " " (List.map fst experiments))
  in
  (match List.filter (fun n -> not (List.mem_assoc n experiments)) names with
  | [] -> ()
  | bad ->
      Printf.eprintf "unknown experiment %s\n%s\n" (String.concat ", " bad)
        usage;
      exit 2);
  List.iter
    (fun name ->
      let (), t = Harness.time (List.assoc name experiments) in
      Printf.printf "[%s finished in %.1fs]\n%!" name t)
    (if names = [] then List.map fst experiments else names)
