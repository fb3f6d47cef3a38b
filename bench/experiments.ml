(* Reproduction of every table and figure in the paper's evaluation
   (see DESIGN.md §4 for the experiment index and the expected shapes,
   and EXPERIMENTS.md for recorded results). *)

open Legodb
open Harness
module Inputs = Perfbench.Inputs

let params = Cost.default_params

let annotated stats = Annotate.schema stats Imdb.Schema.schema

(* cost of one query under a configuration; indexes are granted for the
   equality columns of the whole workload being studied, uniformly
   across configurations *)
let query_costs ?(workload_indexes = false) schema queries =
  match Mapping.of_pschema schema with
  | Error es -> failwith (String.concat "; " es)
  | Ok m ->
      let translated = List.map (Xq_translate.translate m) queries in
      (* keys and foreign keys only by default, as the mapping generates
         them; experiments where the paper says selections "can be
         pushed" grant indexes on the workload's equality columns *)
      let catalog =
        if workload_indexes then
          Rschema.add_indexes m.Mapping.catalog
            (Xq_translate.equality_columns translated)
        else m.Mapping.catalog
      in
      List.map (fun q -> snd (Optimizer.query_cost ~params catalog q)) translated

let workload_cost schema w = Search.pschema_cost ~params ~workload:w schema

(* ------------------------------------------------------------------ *)
(* configurations                                                      *)
(* ------------------------------------------------------------------ *)

let all_inlined stats = Init.all_inlined (annotated stats)

let find_choice schema ty =
  match
    List.find_opt
      (fun (_, t) -> match t with Xtype.Choice _ -> true | _ -> false)
      (Xtype.locations (Xschema.find schema ty))
  with
  | Some (loc, _) -> loc
  | None -> failwith ("no union in " ^ ty)

(* Figure 4(c): the Show union distributed, everything else inlined *)
let union_distributed stats =
  let ps0 = Init.normalize (annotated stats) in
  let dist = Rewrite.distribute_union ps0 ~tname:"Show" ~loc:(find_choice ps0 "Show") in
  Init.all_inlined ~union_to_options:false dist

(* Figure 4(b)-style: all inlined, NYT reviews materialized out of the
   wildcard *)
let wildcard_materialized stats ~tag =
  let inl = all_inlined stats in
  let body = Xschema.find inl "Reviews" in
  let loc =
    match
      List.find_opt
        (fun (_, t) ->
          match t with
          | Xtype.Elem { label = Label.Any | Label.Any_except _; _ } -> true
          | _ -> false)
        (Xtype.locations body)
    with
    | Some (l, _) -> l
    | None -> failwith "no wildcard in Reviews"
  in
  Rewrite.materialize_wildcard inl ~tname:"Reviews" ~loc ~tag

(* ------------------------------------------------------------------ *)
(* printing helpers                                                    *)
(* ------------------------------------------------------------------ *)

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let row1 fmt = Printf.printf fmt

(* ------------------------------------------------------------------ *)
(* Figure 6: estimated costs of the Section 2 queries and workloads    *)
(* under the three storage mappings of Figure 4, normalized by the     *)
(* all-inlined mapping                                                 *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  header "Figure 6 -- normalized costs, storage mappings of Figure 4";
  let stats =
    Imdb.Stats.with_review_sources Imdb.Stats.full ~total:11250
      [ ("nyt", 0.125); ("suntimes", 0.875) ]
  in
  let queries = List.init 4 (fun i -> Imdb.Queries.fig5 (i + 1)) in
  let configs =
    [
      ("Map1 (all-inlined, 4a)", all_inlined stats);
      ("Map2 (nyt wildcard, 4b)", wildcard_materialized stats ~tag:"nyt");
      ("Map3 (union dist., 4c)", union_distributed stats);
    ]
  in
  let per_query = List.map (fun (_, s) -> query_costs s queries) configs in
  let w_costs w = List.map (fun (_, s) -> workload_cost s w) configs in
  let w1 = w_costs Imdb.Workloads.w1 and w2 = w_costs Imdb.Workloads.w2 in
  let base = List.hd per_query in
  let base_w1 = List.hd w1 and base_w2 = List.hd w2 in
  row1 "%-10s %-26s %-26s %-26s\n" "" "Storage Map 1" "Storage Map 2" "Storage Map 3";
  List.iteri
    (fun qi qname ->
      let cells =
        List.map (fun costs -> List.nth costs qi /. List.nth base qi) per_query
      in
      row1 "%-10s %-26.2f %-26.2f %-26.2f\n" qname (List.nth cells 0)
        (List.nth cells 1) (List.nth cells 2))
    [ "Q1"; "Q2"; "Q3"; "Q4" ];
  row1 "%-10s %-26.2f %-26.2f %-26.2f\n" "W1" (List.nth w1 0 /. base_w1)
    (List.nth w1 1 /. base_w1) (List.nth w1 2 /. base_w1);
  row1 "%-10s %-26.2f %-26.2f %-26.2f\n" "W2" (List.nth w2 0 /. base_w2)
    (List.nth w2 1 /. base_w2) (List.nth w2 2 /. base_w2)

(* ------------------------------------------------------------------ *)
(* Figure 10: greedy cost per iteration, greedy-so vs greedy-si,       *)
(* lookup and publish workloads                                        *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  header "Figure 10 -- cost at each greedy iteration";
  let schema = annotated Imdb.Stats.full in
  let run name workload =
    let si = Search.greedy_si ~params ~workload schema in
    let so = Search.greedy_so ~params ~workload schema in
    Printf.printf "\n[%s workload]\n%-5s %-16s %-16s\n" name "iter" "greedy-si" "greedy-so";
    let costs trace = List.map (fun (e : Search.trace_entry) -> e.cost) trace in
    let csi = costs si.Search.trace and cso = costs so.Search.trace in
    let n = max (List.length csi) (List.length cso) in
    for i = 0 to n - 1 do
      let cell l = match List.nth_opt l i with
        | Some c -> Printf.sprintf "%.1f" c
        | None -> "-" in
      Printf.printf "%-5d %-16s %-16s\n" i (cell csi) (cell cso)
    done;
    Printf.printf "final: greedy-si %.1f (%d iters), greedy-so %.1f (%d iters)\n"
      si.Search.cost (List.length si.Search.trace - 1)
      so.Search.cost (List.length so.Search.trace - 1)
  in
  run "lookup" Imdb.Workloads.lookup;
  run "publish" Imdb.Workloads.publish

(* ------------------------------------------------------------------ *)
(* Figure 11: sensitivity of fixed configurations across the           *)
(* lookup:publish workload spectrum                                    *)
(* ------------------------------------------------------------------ *)

let fig11 ?(grid = 11) () =
  header "Figure 11 -- sensitivity to workload variations";
  let schema = annotated Imdb.Stats.full in
  let design k =
    (Search.greedy_si ~params ~threshold:0.01
       ~workload:(Imdb.Workloads.mixed k) schema)
      .Search.schema
  in
  Printf.printf "designing C[0.25], C[0.50], C[0.75]...\n%!";
  let c25 = design 0.25 and c50 = design 0.5 and c75 = design 0.75 in
  let inlined = Init.all_inlined schema in
  let ks = List.init grid (fun i -> float_of_int i /. float_of_int (grid - 1)) in
  Printf.printf "%-6s %-12s %-12s %-12s %-14s %-12s\n" "k" "C[0.25]" "C[0.50]"
    "C[0.75]" "ALL-INLINED" "OPT";
  List.iter
    (fun k ->
      let w = Imdb.Workloads.mixed k in
      let cost s = workload_cost s w in
      let opt =
        (Search.greedy_si ~params ~threshold:0.01 ~workload:w schema).Search.cost
      in
      Printf.printf "%-6.2f %-12.1f %-12.1f %-12.1f %-14.1f %-12.1f\n%!" k
        (cost c25) (cost c50) (cost c75) (cost inlined) opt)
    ks

(* ------------------------------------------------------------------ *)
(* Figure 13: union-distributed configuration vs all-inlined, per      *)
(* query (cost as a percentage of the all-inlined cost)                *)
(* ------------------------------------------------------------------ *)

let fig13 () =
  header "Figure 13 -- union distribution vs all-inlined (% of all-inlined)";
  let stats = Imdb.Stats.full in
  let inl = all_inlined stats and dist = union_distributed stats in
  let qs = [ 4; 5; 6; 7; 13; 16; 19 ] in
  let queries = List.map Imdb.Queries.q qs in
  let ci = query_costs inl queries and cd = query_costs dist queries in
  Printf.printf "%-6s %-14s %-14s %-10s\n" "query" "all-inlined" "union-dist"
    "percent";
  List.iteri
    (fun i qn ->
      let a = List.nth ci i and b = List.nth cd i in
      Printf.printf "Q%-5d %-14.1f %-14.1f %-10.1f\n" qn a b (100. *. b /. a))
    qs

(* ------------------------------------------------------------------ *)
(* Figure 14: all-inlined vs repetition-split while the number of akas *)
(* grows (aka made {1,*} so the mandatory first occurrence exists, as  *)
(* in the paper's example)                                             *)
(* ------------------------------------------------------------------ *)

let aka_plus_schema =
  (* the IMDB schema with aka{1,*} instead of aka{0,*} *)
  lazy
    (let body = Xschema.find Imdb.Schema.schema "Show" in
     let loc =
       match
         List.find_opt
           (fun (_, t) ->
             match t with
             | Xtype.Rep (Xtype.Elem { label = Label.Name "aka"; _ }, _) -> true
             | _ -> false)
           (Xtype.locations body)
       with
       | Some (l, _) -> l
       | None -> failwith "no aka repetition"
     in
     let aka =
       match Xtype.subterm body loc with
       | Some (Xtype.Rep (inner, _)) -> inner
       | _ -> assert false
     in
     Xschema.update Imdb.Schema.schema "Show"
       (Xtype.replace body loc (Xtype.rep aka Xtype.plus)))

let split_config schema =
  (* normalize, split the aka repetition, inline the mandatory copy *)
  let ps0 = Init.normalize schema in
  let loc =
    match
      List.find_opt
        (fun (_, t) ->
          match t with
          | Xtype.Rep (Xtype.Ref "Aka", o) -> o.Xtype.lo >= 1
          | _ -> false)
        (Xtype.locations (Xschema.find ps0 "Show"))
    with
    | Some (l, _) -> l
    | None -> failwith "no Aka{1,*} in ps0"
  in
  let split = Rewrite.split_repetition ps0 ~tname:"Show" ~loc in
  Init.all_inlined ~union_to_options:true split

let fig14 () =
  header "Figure 14 -- all-inlined vs repetition-split, growing akas";
  let lookup_q =
    Xq_parse.parse ~name:"aka-lookup"
      "FOR $v IN document(\"x\")/imdb/show WHERE $v/title = c1 RETURN $v/aka"
  in
  let publish_q = Imdb.Queries.q 16 in
  Printf.printf "%-9s %-13s %-13s %-13s %-13s\n" "akas" "lookup/inl"
    "lookup/split" "publish/inl" "publish/split";
  List.iter
    (fun akas ->
      let stats = Imdb.Stats.with_aka_count Imdb.Stats.full akas in
      let schema = Annotate.schema stats (Lazy.force aka_plus_schema) in
      let inl = Init.all_inlined schema in
      let split = split_config schema in
      let qs = [ lookup_q; publish_q ] in
      match
        ( query_costs ~workload_indexes:true inl qs,
          query_costs ~workload_indexes:true split qs )
      with
      | [ li; pi ], [ ls; ps ] ->
          Printf.printf "%-9d %-13.1f %-13.1f %-13.1f %-13.1f\n" akas li ls pi ps
      | _ -> assert false)
    [ 40_000; 80_000; 160_000; 320_000; 640_000 ]

(* ------------------------------------------------------------------ *)
(* Table 2: all-inlined vs wildcard-materialized for the NYT-reviews   *)
(* query, varying the share of NYT reviews and the review count        *)
(* ------------------------------------------------------------------ *)

let table2 () =
  header "Table 2 -- all-inlined vs wildcard-materialized (NYT reviews)";
  let query =
    Xq_parse.parse ~name:"nyt-1999"
      "FOR $v IN document(\"x\")/imdb/show WHERE $v/year = 1999 RETURN $v/title, $v/reviews/nyt"
  in
  Printf.printf "%-9s %-9s %-13s %-13s\n" "reviews" "nyt%" "inlined" "wildcard";
  List.iter
    (fun total ->
      List.iter
        (fun pct ->
          let stats =
            Imdb.Stats.with_review_sources Imdb.Stats.full ~total
              [ ("nyt", pct /. 100.); ("suntimes", 1. -. (pct /. 100.)) ]
          in
          let inl = all_inlined stats in
          let wild = wildcard_materialized stats ~tag:"nyt" in
          match (query_costs inl [ query ], query_costs wild [ query ]) with
          | [ ci ], [ cw ] ->
              Printf.printf "%-9d %-9.1f %-13.2f %-13.2f\n" total pct ci cw
          | _ -> assert false)
        [ 50.; 25.; 12.5 ])
    [ 10_000; 100_000 ]

(* ------------------------------------------------------------------ *)
(* Ablations: the modelling decisions of DESIGN.md §4b, each toggled   *)
(* in isolation                                                        *)
(* ------------------------------------------------------------------ *)

let no_sharing_cost catalog (q : Logical.query) =
  (* every block costed independently: what happens without the
     common-subexpression sharing of the MQO-style optimizer *)
  List.fold_left
    (fun acc b ->
      let r = Optimizer.optimize_block ~params catalog b in
      acc +. Cost.total params r.Optimizer.cost)
    0. q.Logical.blocks

let variable_width catalog =
  (* what the estimates look like if NULLs cost nothing (variable-width
     storage instead of the paper-era fixed-width CHAR columns) *)
  {
    Rschema.tables =
      List.map
        (fun (t : Rschema.table) ->
          {
            t with
            Rschema.columns =
              List.map
                (fun (c : Rschema.column) ->
                  let st = c.Rschema.stats in
                  {
                    c with
                    Rschema.stats =
                      {
                        st with
                        Rschema.avg_width =
                          Float.max 1. (st.Rschema.avg_width *. (1. -. st.Rschema.null_frac));
                      };
                  })
                t.Rschema.columns;
          })
        catalog.Rschema.tables;
  }

let ablation () =
  header "Ablations -- the cost-model choices of DESIGN.md, toggled";
  let schema = annotated Imdb.Stats.full in

  (* 1. search strategies *)
  Printf.printf "\n[search strategy: final workload cost (tables)]\n";
  Printf.printf "%-12s %-20s %-20s %-20s\n" "workload" "greedy-si" "greedy-so" "beam(w=4)";
  List.iter
    (fun (name, w) ->
      let final (r : Search.result) =
        Printf.sprintf "%.1f (%d)" r.Search.cost
          (List.nth r.Search.trace (List.length r.Search.trace - 1)).Search.tables
      in
      let si = Search.greedy_si ~params ~workload:w schema in
      let so = Search.greedy_so ~params ~workload:w schema in
      let b =
        Search.beam ~params ~width:4 ~kinds:[ Legodb.Space.K_outline ]
          ~workload:w (Init.all_inlined schema)
      in
      Printf.printf "%-12s %-20s %-20s %-20s\n%!" name (final si) (final so) (final b))
    [
      ("lookup", Imdb.Workloads.lookup);
      ("publish", Imdb.Workloads.publish);
      ("mixed 0.5", Imdb.Workloads.mixed 0.5);
    ];

  (* 2. common-subexpression sharing *)
  Printf.printf "\n[shared subexpressions across a query's blocks]\n";
  Printf.printf "%-8s %-14s %-14s %-14s\n" "query" "with CSE" "without" "ratio";
  let dist = union_distributed Imdb.Stats.full in
  (match Mapping.of_pschema dist with
  | Error es -> failwith (String.concat ";" es)
  | Ok m ->
      List.iter
        (fun qn ->
          let q = Xq_translate.translate m (Imdb.Queries.q qn) in
          let with_cse = snd (Optimizer.query_cost ~params m.Mapping.catalog q) in
          let without = no_sharing_cost m.Mapping.catalog q in
          Printf.printf "Q%-7d %-14.1f %-14.1f %-14.2f\n" qn with_cse without
            (without /. with_cse))
        [ 13; 16; 19 ]);

  (* 3. fixed-width vs variable-width columns *)
  Printf.printf "\n[fixed-width CHAR vs variable-width storage]\n";
  Printf.printf "%-8s %-16s %-16s\n" "query" "fixed (paper)" "variable";
  let inl_m =
    match Mapping.of_pschema (all_inlined Imdb.Stats.full) with
    | Ok m -> m
    | Error es -> failwith (String.concat ";" es)
  in
  List.iter
    (fun qn ->
      let q = Xq_translate.translate inl_m (Imdb.Queries.q qn) in
      let fixed = snd (Optimizer.query_cost ~params inl_m.Mapping.catalog q) in
      let var =
        snd (Optimizer.query_cost ~params (variable_width inl_m.Mapping.catalog) q)
      in
      Printf.printf "Q%-7d %-16.1f %-16.1f\n" qn fixed var)
    [ 4; 16 ];

  (* 4. workload-derived indexes *)
  Printf.printf "\n[indexes on the workload's equality columns]\n";
  let inl = all_inlined Imdb.Stats.full in
  let without = Search.pschema_cost ~params ~workload:Imdb.Workloads.lookup inl in
  let with_idx =
    Search.pschema_cost ~params ~workload_indexes:true
      ~workload:Imdb.Workloads.lookup inl
  in
  Printf.printf "lookup workload, all-inlined: keys/fks only %.1f, +eq-column indexes %.1f\n"
    without with_idx;

  (* 5. order columns *)
  Printf.printf "\n[document-order columns]\n";
  (match
     ( Mapping.of_pschema inl,
       Mapping.of_pschema ~order_columns:true inl )
   with
  | Ok plain, Ok ordered ->
      let cost m =
        let q = Xq_translate.translate m (Imdb.Queries.q 16) in
        snd (Optimizer.query_cost ~params m.Mapping.catalog q)
      in
      Printf.printf "publish Q16: plain %.1f, with doc_order %.1f (+%.1f%%)\n"
        (cost plain) (cost ordered)
        (100. *. ((cost ordered /. cost plain) -. 1.))
  | _ -> failwith "mapping failed");

  (* 6. update-aware design *)
  Printf.printf "\n[update weight pulls the design toward fewer tables]\n";
  Printf.printf "%-14s %-12s %-10s\n" "insert weight" "cost" "tables";
  (* actor inserts write the Actor/Played/Award subtree — the same
     tables the Q12 workload wants to carve up *)
  let ins = Legodb.Xq_parse.parse_update ~name:"ins" "INSERT imdb/actor" in
  let w = Workload.of_queries [ Imdb.Queries.q 12 ] in
  List.iter
    (fun weight ->
      let r =
        Search.greedy_si ~params ~workload:w
          ~updates:(if weight = 0. then [] else [ (ins, weight) ])
          schema
      in
      let tables =
        (List.nth r.Search.trace (List.length r.Search.trace - 1)).Search.tables
      in
      Printf.printf "%-14.0f %-12.1f %-10d\n%!" weight r.Search.cost tables)
    [ 0.; 5.; 20.; 80. ]

(* ------------------------------------------------------------------ *)
(* search_perf: cost-engine caching effect on the search wall-clock    *)
(* ------------------------------------------------------------------ *)

(* Three timed runs per (workload, strategy): [cold] disables the cache
   entirely, [first] runs with a fresh engine (within-run reuse across
   neighbours and iterations), [rerun] repeats the search on the warm
   engine (the incremental re-tuning scenario: every configuration the
   search visits is already cached).  All three must agree bit for bit
   on the selected cost — the cache is pure memoization.

   The jobs sweep then re-runs the cold mixed-workload search with
   parallel neighbor costing at each [-j] value, asserting the selected
   schema, cost, and trace are bit-identical throughout ([--smoke] mode
   runs only the sweep, on greedy_si, for CI).  Each sweep row also
   reports the seam's own accounting — fan-outs, time inside fan-outs,
   merge time, and the caller's barrier-idle time — so a regression is
   attributable to a layer, not just visible in the wall clock.

   Two gates guard the seam.  Full mode: >= 2x speedup at -j 4 over
   -j 1 for {e both} strategies, asserted only where it can physically
   hold (domains backend, 4+ recommended cores, sweep reaching 4
   jobs).  Smoke mode (CI, any core count): -j 2 wall time must stay
   within 1.15x of -j 1 — the parallel seam must cost ~nothing even
   when it cannot win; after one untimed warm-up run per side (the
   first -j 2 search spawns the worker pool), the two sides take turns
   for 5 rounds and the gate compares their medians.  On an OCaml 5
   compiler the sweep additionally fails outright if the build
   selected the sequential backend, so a dune [select] regression
   cannot silently turn the sweep into a no-op. *)

(* trace equality up to engine counters: wall-clock timers (and, with
   jobs > 1, hit/miss splits) legitimately differ between runs *)
let same_trace a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Search.trace_entry) (y : Search.trace_entry) ->
         x.Search.iteration = y.Search.iteration
         && Float.equal x.Search.cost y.Search.cost
         && x.Search.tables = y.Search.tables
         && Option.equal
              (fun s s' ->
                String.equal
                  (Format.asprintf "%a" Space.pp_step s)
                  (Format.asprintf "%a" Space.pp_step s'))
              x.Search.step y.Search.step)
       a b

(* the -j values a sweep runs: 1 and [jobs], plus [full] outside
   --smoke *)
let jobs_sweep ~smoke ~full jobs =
  List.sort_uniq compare
    (List.filter (fun j -> j >= 1) ((if smoke then [ 1 ] else full) @ [ jobs ]))

let search_perf ?(jobs = 1) ?(smoke = false) () =
  header "Search wall-clock vs. cost-engine caching";
  let schema = annotated Imdb.Stats.full in
  let rows = ref [] in
  let emit row = rows := row :: !rows in
  let row ~strategy ~wname ~(workload : Workload.t) run =
    let cold, t_cold = time (fun () -> run ~engine:None ~memoize:(Some false)) in
    let eng = Cost_engine.create ~params ~workload () in
    let first, t_first = time (fun () -> run ~engine:(Some eng) ~memoize:None) in
    let rerun, t_rerun = time (fun () -> run ~engine:(Some eng) ~memoize:None) in
    if
      not
        (Float.equal cold.Search.cost first.Search.cost
        && Float.equal first.Search.cost rerun.Search.cost)
    then
      failwith
        (Printf.sprintf "search_perf: %s/%s cached cost diverges" strategy wname);
    let e1 = first.Search.engine and e2 = rerun.Search.engine in
    let e0 = cold.Search.engine in
    Printf.printf
      "%-9s %-7s  cold %6.3fs (optimize %6.3fs)  first %6.3fs (%3.0f%% hits, \
       %.1fx)  rerun %6.3fs (%3.0f%% hits, %.1fx)\n\
       %!"
      strategy wname t_cold e0.Cost_engine.t_optimize t_first
      (100. *. Cost_engine.hit_rate e1)
      (t_cold /. t_first) t_rerun
      (100. *. Cost_engine.hit_rate e2)
      (t_cold /. t_rerun);
    emit
      [
        ("kind", Str "cache");
        ("strategy", Str strategy);
        ("workload", Str wname);
        ("cost", Num cold.Search.cost);
        ("configs_costed", Int e1.Cost_engine.evaluations);
        ("hits", Int e1.Cost_engine.hits);
        ("misses", Int e1.Cost_engine.misses);
        ("hit_rate", Num (Cost_engine.hit_rate e1));
        ("cold_s", Num t_cold);
        ("first_s", Num t_first);
        ("rerun_s", Num t_rerun);
        ("cold_t_mapping", Num e0.Cost_engine.t_mapping);
        ("cold_t_translate", Num e0.Cost_engine.t_translate);
        ("cold_t_optimize", Num e0.Cost_engine.t_optimize);
        ("first_speedup", Num (t_cold /. t_first));
        ("rerun_speedup", Num (t_cold /. t_rerun));
        ("rerun_hit_rate", Num (Cost_engine.hit_rate e2));
      ]
  in
  if not smoke then
    List.iter
      (fun (wname, workload) ->
        row ~strategy:"greedy_si" ~wname ~workload (fun ~engine ~memoize ->
            Search.greedy_si ~params ?memoize ?engine ~workload schema);
        row ~strategy:"beam" ~wname ~workload (fun ~engine ~memoize ->
            Search.beam ~params ?memoize ?engine ~workload
              (Init.all_inlined schema)))
      [
        ("lookup", Imdb.Workloads.lookup);
        ("publish", Imdb.Workloads.publish);
        ("mixed", Imdb.Workloads.mixed 0.5);
      ];

  (* ---- parallel neighbor costing: the jobs sweep ---- *)
  let sweep = jobs_sweep ~smoke ~full:[ 1; 2; 4 ] jobs in
  Printf.printf
    "\nParallel neighbor costing on the cold mixed workload (backend %s, %d \
     recommended cores)\n"
    Par.backend (Par.default_jobs ());
  (* dune's [select] must have picked the domains backend on OCaml 5;
     a silent fall-through to par_seq would keep every row green while
     measuring nothing *)
  if
    String.length Sys.ocaml_version > 0
    && Sys.ocaml_version.[0] >= '5'
    && not (String.equal Par.backend "domains")
  then
    failwith
      (Printf.sprintf
         "search_perf: OCaml %s built the \"%s\" backend; expected \
          \"domains\" — the jobs sweep would measure nothing"
         Sys.ocaml_version Par.backend);
  let workload = Imdb.Workloads.mixed 0.5 in
  let strategies =
    ( "greedy_si",
      fun j -> Search.greedy_si ~params ~jobs:j ~workload schema )
    ::
    (if smoke then []
     else
       [
         ( "beam",
           fun j ->
             Search.beam ~params ~jobs:j ~workload (Init.all_inlined schema) );
       ])
  in
  (* the full sweep times one run per -j value *)
  let n_rounds = if smoke then 5 else 1 in
  let wall (_, t, _) = t in
  List.iter
    (fun (sname, run) ->
      let once j () =
        Search.seam_reset ();
        let r, t = time (fun () -> run j) in
        (r, t, Search.seam_stats ())
      in
      if smoke then List.iter (fun j -> ignore (once j ())) sweep;
      let results =
        List.combine sweep (rounds n_rounds (List.map once sweep))
      in
      let median j = pick 50. wall (List.assoc j results) in
      let base, t1, _ = median 1 in
      List.iter
        (fun (j, samples) ->
          Array.iter
            (fun ((r : Search.result), _, _) ->
              if not (Float.equal r.Search.cost base.Search.cost) then
                failwith
                  (Printf.sprintf
                     "search_perf: %s -j %d cost diverges from -j 1 (%h vs %h)"
                     sname j r.Search.cost base.Search.cost);
              if
                not
                  (String.equal
                     (Xschema.to_string r.Search.schema)
                     (Xschema.to_string base.Search.schema))
              then
                failwith
                  (Printf.sprintf
                     "search_perf: %s -j %d selects a different schema" sname
                     j);
              if not (same_trace r.Search.trace base.Search.trace) then
                failwith
                  (Printf.sprintf "search_perf: %s -j %d trace diverges" sname
                     j))
            samples;
          let r, t, (seam : Search.seam_stats) = median j in
          let sp = t1 /. t in
          Printf.printf
            "%-9s -j %-3d  %7.3fs  speedup %5.2fx  (fanouts %3d, fanout \
             %6.3fs, merge %6.3fs, barrier idle %6.3fs)%s\n\
             %!"
            sname j t sp seam.Search.s_fanouts seam.Search.s_t_fanout
            seam.Search.s_t_merge seam.Search.s_t_barrier_idle
            (if j = 1 then " (baseline)" else "");
          if n_rounds > 1 then
            Printf.printf "  wall over %d rounds: %s\n%!" n_rounds
              (spread (Array.map wall samples));
          emit
            [
              ("kind", Str "jobs_sweep");
              ("strategy", Str sname);
              ("workload", Str "mixed");
              ("jobs", Int j);
              ("cost", Num r.Search.cost);
              ("wall_s", Num t);
              ("speedup_vs_j1", Num sp);
              ("fanouts", Int seam.Search.s_fanouts);
              ("t_fanout", Num seam.Search.s_t_fanout);
              ("t_merge", Num seam.Search.s_t_merge);
              ("t_barrier_idle", Num seam.Search.s_t_barrier_idle);
            ])
        results;
      let jmax = List.fold_left max 1 sweep in
      (* the wall-clock claim, asserted where it can physically hold:
         >= 2x at -j 4 for every swept strategy *)
      if (not smoke) && Par.available && Par.default_jobs () >= 4 && jmax >= 4
      then begin
        let _, tmax, _ = median jmax in
        let sp = t1 /. tmax in
        if sp < 2.0 then
          failwith
            (Printf.sprintf
               "search_perf: %s -j %d speedup %.2fx < 2x on %d-core hardware"
               sname jmax sp (Par.default_jobs ()))
      end;
      (* the overhead claim, asserted everywhere the domains backend
         runs (CI included): even when extra jobs cannot win — one
         core, oversubscription — the seam must not cost wall time *)
      if smoke && Par.available && List.mem 2 sweep then begin
        let _, t2, _ = median 2 in
        if t2 > t1 *. 1.15 then
          failwith
            (Printf.sprintf
               "search_perf: %s -j 2 wall %.3fs exceeds 1.15x of -j 1 \
                (%.3fs), medians of %d rounds: the parallel seam is taxing \
                the search"
               sname t2 t1 n_rounds)
      end)
    strategies;
  record ~smoke ~jobs "search_perf" (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* optimizer_perf: mask-indexed join DP vs the frozen reference        *)
(* ------------------------------------------------------------------ *)

(* Times the per-candidate optimizer in isolation: for each (storage
   configuration, workload) pair, the whole translated workload is
   costed through the fast mask-indexed [Optimizer] and through the
   frozen pre-rewrite [Optimizer_reference], after asserting that the
   two return bit-identical plans, row estimates, and costs on every
   block.  The stage breakdown (t_mapping / t_translate / t_optimize)
   localizes where a candidate evaluation spends its time, and the
   minor words one costing allocates on each path (a count that repeats
   exactly, unlike the timings) shows the mechanism.  Each path's time
   is its best of 7 rounds, the two paths taking turns.  [--smoke] runs
   one round and skips the JSON and the timing gate, keeping the
   divergence check and the allocation gate for CI. *)
let optimizer_perf ?(jobs = 1) ?(smoke = false) () =
  header "Per-candidate optimizer: mask-indexed DP vs frozen reference";
  let schema = annotated Imdb.Stats.full in
  let configs =
    [
      ("inlined", Init.all_inlined schema);
      ("outlined", Init.normalize schema);
    ]
  in
  let workloads =
    [
      ("lookup", Imdb.Workloads.lookup);
      ("publish", Imdb.Workloads.publish);
      ("mixed", Imdb.Workloads.mixed 0.5);
    ]
  in
  let reps = if smoke then 1 else 7 in
  let bits = Int64.bits_of_float in
  let rows = ref [] in
  (* per-workload fast/reference optimize time, summed over configs —
     the >= 2x gate below reads these *)
  let gate : (string, float * float) Hashtbl.t = Hashtbl.create 4 in
  (* words allocated by one call, on this domain's minor heap *)
  let minor_words f =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. w0
  in
  List.iter
    (fun (cname, config) ->
      let m, t_mapping =
        time (fun () ->
            match Mapping.of_pschema config with
            | Ok m -> m
            | Error es -> failwith (String.concat "; " es))
      in
      let catalog = m.Mapping.catalog in
      List.iter
        (fun (wname, workload) ->
          let queries, t_translate =
            time (fun () ->
                List.map
                  (fun (q, w) -> (Xq_translate.translate m q, w))
                  workload)
          in
          let blocks =
            List.fold_left
              (fun n (q, _) -> n + List.length q.Logical.blocks)
              0 queries
          in
          let max_rels =
            List.fold_left
              (fun n (q, _) ->
                List.fold_left
                  (fun n (b : Logical.block) ->
                    max n (List.length b.Logical.relations))
                  n q.Logical.blocks)
              0 queries
          in
          (* bit-identity on every block before any timing *)
          List.iter
            (fun (q, _) ->
              let fast, ft = Optimizer.query_cost ~params catalog q in
              let refr, rt = Optimizer_reference.query_cost ~params catalog q in
              if bits ft <> bits rt then
                failwith
                  (Printf.sprintf
                     "optimizer_perf: %s/%s/%s cost diverges from reference \
                      (%h vs %h)"
                     cname wname q.Logical.qname ft rt);
              List.iter2
                (fun (f : Optimizer.result) (r : Optimizer_reference.result) ->
                  if
                    not
                      (f.Optimizer.plan = r.Optimizer_reference.plan
                      && bits f.Optimizer.rows = bits r.Optimizer_reference.rows
                      && bits (Cost.total params f.Optimizer.cost)
                         = bits (Cost.total params r.Optimizer_reference.cost))
                  then
                    failwith
                      (Printf.sprintf
                         "optimizer_perf: %s/%s/%s plan diverges from reference"
                         cname wname q.Logical.qname))
                fast refr)
            queries;
          let fast () = Optimizer.workload_cost ~params catalog queries in
          let refr () =
            Optimizer_reference.workload_cost ~params catalog queries
          in
          let timed f () = snd (time f) in
          let t_fast, t_ref =
            match rounds reps [ timed fast; timed refr ] with
            | [ f; r ] -> (pick 0. Fun.id f, pick 0. Fun.id r)
            | _ -> assert false
          in
          let w_fast = minor_words fast and w_ref = minor_words refr in
          let fa, ra =
            Option.value ~default:(0., 0.) (Hashtbl.find_opt gate wname)
          in
          Hashtbl.replace gate wname (fa +. t_fast, ra +. t_ref);
          Printf.printf
            "%-9s %-7s  %3d blocks (<= %d rels)  optimize %8.2f ms  reference \
             %8.2f ms  speedup %5.2fx  minor words %8.0f / %8.0f (%.2fx)\n\
             %!"
            cname wname blocks max_rels (1e3 *. t_fast) (1e3 *. t_ref)
            (t_ref /. t_fast) w_fast w_ref (w_fast /. w_ref);
          (* the allocation claim: the join DP allocates only for each
             mask's winner.  Word counts repeat exactly, so this gate
             holds in --smoke too *)
          if (wname = "lookup" || wname = "mixed") && w_fast > 0.25 *. w_ref
          then
            failwith
              (Printf.sprintf
                 "optimizer_perf: %s/%s allocates %.0f minor words, > 0.25x \
                  the reference's %.0f"
                 cname wname w_fast w_ref);
          rows :=
            [
              ("config", Str cname);
              ("workload", Str wname);
              ("queries", Int (List.length queries));
              ("blocks", Int blocks);
              ("max_rels", Int max_rels);
              ("t_mapping_s", Num t_mapping);
              ("t_translate_s", Num t_translate);
              ("t_optimize_fast_s", Num t_fast);
              ("t_optimize_ref_s", Num t_ref);
              ("speedup", Num (t_ref /. t_fast));
              ("minor_words_fast", Int (int_of_float w_fast));
              ("minor_words_ref", Int (int_of_float w_ref));
            ]
            :: !rows)
        workloads)
    configs;
  record ~smoke ~jobs "optimizer_perf" (List.rev !rows);
  (* the tentpole claim: the optimize stage on the per-candidate hot
     workloads is at least twice as fast as the frozen reference *)
  if not smoke then
    List.iter
      (fun wname ->
        match Hashtbl.find_opt gate wname with
        | Some (fast, refr) when refr /. fast < 2. ->
            failwith
              (Printf.sprintf
                 "optimizer_perf: %s optimize speedup %.2fx < 2x vs reference"
                 wname (refr /. fast))
        | _ -> ())
      [ "lookup"; "mixed" ]

(* ------------------------------------------------------------------ *)
(* budget_sweep: anytime search — every budgeted run is a prefix       *)
(* ------------------------------------------------------------------ *)

(* One unbudgeted greedy_si run fixes the reference trace (and, via a
   no-limit Budget, the total ticket count).  Then for each evaluation
   budget, iteration cap, and jobs value, the budgeted run must return
   exactly the best-so-far prefix of the reference trace, with
   [stopped] naming the budget that tripped — the anytime guarantee,
   asserted rather than plotted.  A final section runs the search with
   a deterministic injected fault and records the per-candidate
   failure records the search now surfaces. *)
let budget_sweep ?(jobs = 1) ?(smoke = false) () =
  header "Anytime search: budgeted runs are prefixes of the full run";
  let schema = annotated Imdb.Stats.full in
  let workload = Imdb.Workloads.mixed 0.5 in
  let tickets = Budget.create () in
  let full = Search.greedy_si ~params ~budget:tickets ~workload schema in
  (match full.Search.stopped with
  | `Converged -> ()
  | s ->
      failwith
        ("budget_sweep: unbudgeted run stopped: " ^ Search.stopped_string s));
  let total_evals = Budget.evaluations tickets in
  let total_iters = List.length full.Search.trace - 1 in
  Printf.printf "full run: cost %.1f, %d iterations, %d evaluations\n%!"
    full.Search.cost total_iters total_evals;
  let prefix n l = List.filteri (fun i _ -> i < n) l in
  let rows = ref [] in
  let emit row = rows := row :: !rows in
  let check ~label ~budget_of ~expect j =
    let r =
      Search.greedy_si ~params ~jobs:j ~budget:(budget_of ()) ~workload schema
    in
    let n = List.length r.Search.trace in
    if not (same_trace r.Search.trace (prefix n full.Search.trace)) then
      failwith
        (Printf.sprintf "budget_sweep: %s -j %d is not a prefix of the full trace"
           label j);
    if r.Search.stopped <> expect then
      failwith
        (Printf.sprintf "budget_sweep: %s -j %d stopped %s, expected %s" label j
           (Search.stopped_string r.Search.stopped)
           (Search.stopped_string expect));
    Printf.printf "%-16s -j %-3d  %2d iterations  cost %12.1f  (%s)\n%!" label j
      (n - 1) r.Search.cost
      (Search.stopped_string r.Search.stopped);
    emit
      [
        ("kind", Str "budget_sweep");
        ("budget", Str label);
        ("jobs", Int j);
        ("iterations", Int (n - 1));
        ("cost", Num r.Search.cost);
        ("stopped", Str (Search.stopped_string r.Search.stopped));
        ("failures", Int (List.length r.Search.failures));
      ]
  in
  List.iter
    (fun j ->
      List.iter
        (fun frac ->
          let limit = max 1 (int_of_float (frac *. float_of_int total_evals)) in
          let expect =
            if limit >= total_evals then `Converged else `Cost_budget
          in
          check
            ~label:(Printf.sprintf "evals<=%d" limit)
            ~budget_of:(fun () -> Budget.create ~max_evaluations:limit ())
            ~expect j)
        (if smoke then [ 0.5 ] else [ 0.25; 0.5; 0.75; 1.0 ]);
      List.iter
        (fun iters ->
          (* an [iters = total_iters] cap trips at the barrier before
             the would-be converging pass, so it reports [iterations] *)
          let expect =
            if iters > total_iters then `Converged else `Iterations
          in
          check
            ~label:(Printf.sprintf "iters<=%d" iters)
            ~budget_of:(fun () -> Budget.create ~max_iterations:iters ())
            ~expect j)
        (if smoke then [ 1 ] else [ 1; 2; total_iters ]);
      (* a zero deadline still returns the (budget-exempt) initial
         configuration *)
      check ~label:"deadline 0ms"
        ~budget_of:(fun () -> Budget.create ~wall_ms:0. ())
        ~expect:`Deadline j)
    (jobs_sweep ~smoke ~full:[ 1; 2 ] jobs);

  (* ---- fault accounting under deterministic injection ---- *)
  let init_s = Xschema.to_string (Init.all_inlined schema) in
  let inject s = (not (String.equal s init_s)) && Hashtbl.hash s mod 5 = 0 in
  let eng = Cost_engine.create ~params ~workload ~inject () in
  let faulty = Search.greedy_si ~params ~engine:eng ~workload schema in
  Printf.printf
    "\nwith injected faults (1 in 5): cost %.1f (%s), %d candidates skipped\n%!"
    faulty.Search.cost
    (Search.stopped_string faulty.Search.stopped)
    (List.length faulty.Search.failures);
  List.iter
    (fun (f : Search.failure) ->
      emit
        [
          ("kind", Str "fault");
          ("iteration", Int f.Search.f_iteration);
          ("step", Str (Format.asprintf "%a" Space.pp_step f.Search.f_step));
          ("stage", Str f.Search.f_stage);
          ("class", Str f.Search.f_class);
          ("message", Str f.Search.f_message);
        ])
    faulty.Search.failures;
  record ~smoke ~jobs "budget_sweep" (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* checkpoint_resume: kill a search, resume the snapshot, same answer  *)
(* ------------------------------------------------------------------ *)

(* The durable-checkpoint guarantee, asserted rather than plotted: a
   search stopped by a budget while snapshotting to disk, then resumed
   from that file by a *fresh* engine and budget (everything a crash
   would lose), returns the same design bit for bit — cost, schema,
   trace, stop reason — as a run that was never interrupted, at every
   jobs value.  Each row also records how much costing work the warm
   snapshot saved the resumed process. *)
let checkpoint_resume ?(jobs = 1) ?(smoke = false) () =
  header "Durable checkpoints: kill-and-resume matches the uninterrupted run";
  let schema = annotated Imdb.Stats.full in
  let workload = Imdb.Workloads.mixed 0.5 in
  let full = Search.greedy_si ~params ~workload schema in
  let total_iters = List.length full.Search.trace - 1 in
  Printf.printf "uninterrupted: cost %.1f, %d iterations, %d configs costed\n%!"
    full.Search.cost total_iters full.Search.engine.Cost_engine.evaluations;
  let rows = ref [] in
  let check ~label ~budget_of ~warm j =
    let path = Filename.temp_file "legodb_bench" ".ckpt" in
    let stopped =
      Search.greedy_si ~params ~jobs:j ~budget:(budget_of ())
        ~checkpoint:(path, 1) ~workload schema
    in
    let resumed = Search.resume ~params ~jobs:j ~warm ~workload path in
    Sys.remove path;
    let fail fmt =
      Printf.ksprintf
        (fun m -> failwith (Printf.sprintf "checkpoint_resume: %s: %s" label m))
        fmt
    in
    if not (Float.equal resumed.Search.cost full.Search.cost) then
      fail "resumed cost %.3f <> %.3f" resumed.Search.cost full.Search.cost;
    if
      not
        (String.equal
           (Xschema.to_string resumed.Search.schema)
           (Xschema.to_string full.Search.schema))
    then fail "resumed schema differs";
    if not (same_trace resumed.Search.trace full.Search.trace) then
      fail "resumed trace differs";
    if resumed.Search.stopped <> full.Search.stopped then
      fail "resumed stopped %s <> %s"
        (Search.stopped_string resumed.Search.stopped)
        (Search.stopped_string full.Search.stopped);
    let stopped_iters = List.length stopped.Search.trace - 1 in
    let resumed_evals = resumed.Search.engine.Cost_engine.evaluations in
    let full_evals = full.Search.engine.Cost_engine.evaluations in
    Printf.printf
      "%-12s -j %-3d %s  stopped after %d iters, resumed to cost %12.1f \
       (costed %d of %d configs)\n\
       %!"
      label j
      (if warm then "warm" else "cold")
      stopped_iters resumed.Search.cost resumed_evals full_evals;
    rows :=
      [
        ("kind", Str "checkpoint_resume");
        ("stop", Str label);
        ("jobs", Int j);
        ("warm", Bool warm);
        ("stopped_iters", Int stopped_iters);
        ("resumed_cost", Num resumed.Search.cost);
        ("resumed_evals", Int resumed_evals);
        ("full_evals", Int full_evals);
      ]
      :: !rows
  in
  List.iter
    (fun j ->
      (* stop at an iteration barrier, and mid-iteration on a ticket
         budget — the snapshot must hold barrier state only *)
      check ~label:"iters<=1"
        ~budget_of:(fun () -> Budget.create ~max_iterations:1 ())
        ~warm:true j;
      check ~label:"evals<=20"
        ~budget_of:(fun () -> Budget.create ~max_evaluations:20 ())
        ~warm:true j;
      if not smoke then
        check ~label:"evals<=20"
          ~budget_of:(fun () -> Budget.create ~max_evaluations:20 ())
          ~warm:false j)
    (jobs_sweep ~smoke ~full:[ 1; 2 ] jobs);
  record ~smoke ~jobs "checkpoint_resume" (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* serve_perf: the query server over a frozen snapshot                 *)
(* ------------------------------------------------------------------ *)

(* Stand up `Serve` on a scaled synthetic IMDB corpus (>= 100k rows in
   the full run) and replay a parameterized point-lookup workload:

     cold      first batch, the plan cache compiling each of the 4
               statement templates once on the way (gated: exactly 4
               compilations)
     warm      the same batch again, all plan-cache hits
     nocache   the same requests with the cache bypassed (translate +
               optimize every time), the baseline the cache must beat
     post-pub  the warm batch after an append + publish, against the
               new snapshot (its plans start empty: each template
               recompiles once)

   Requests are point lookups in the paper's "selections can be
   pushed" setting: the workload's equality columns get indexes (the
   same uniform grant the other experiments use), so a request costs
   microseconds to execute and the plan cache's savings are visible
   in end-to-end throughput rather than buried under table scans.

   Answers are cross-checked two ways on a sampled sub-workload: row
   sets must be bit-identical to a one-shot translate/optimize/execute
   pipeline on the same snapshot, and row counts must match the naive
   tree evaluator on the source document. *)
let serve_perf ?(jobs = 1) ?(smoke = false) () =
  header "Serving throughput over frozen snapshots";
  let scale = if smoke then 0.002 else 0.12 in
  let doc, t_gen =
    time (fun () ->
        Imdb.Gen.generate { (Imdb.Gen.scaled scale) with Imdb.Gen.seed = 7 })
  in
  let stats = Collector.collect doc in
  let ps = Init.all_inlined (Annotate.schema stats Imdb.Schema.schema) in
  let n_templates = 4 in
  let m =
    let base =
      match Mapping.of_pschema ps with
      | Ok m -> m
      | Error es -> failwith (String.concat "; " es)
    in
    let equality =
      Xq_translate.equality_columns
        (List.map
           (fun t -> Xq_translate.translate base (Xq_parse.parse ~name:"rep" t))
           Inputs.representatives)
    in
    { base with Mapping.catalog = Rschema.add_indexes base.Mapping.catalog equality }
  in
  let db, t_shred = time (fun () -> Shred.shred m doc) in
  let total = Storage.total_rows db in
  Printf.printf
    "corpus: scale %.3f, %d rows (generate %.2fs, shred %.2fs), %d jobs\n%!"
    scale total t_gen t_shred jobs;
  if (not smoke) && total < 100_000 then
    failwith
      (Printf.sprintf "serve_perf: corpus too small (%d rows < 100000)" total);
  (* the server executes in memory: with the paper's disk-calibrated
     seek weight (40 per seek) a non-clustered index probe (4 seeks)
     would lose to scanning a 20k-row table, so plans are compiled
     under memory-calibrated weights and the probes actually win *)
  let mem_params =
    { Cost.default_params with Cost.seek_weight = 0.1; read_weight = 0.1 }
  in
  let server = Serve.create ~jobs ~params:mem_params m db in
  (* constant pools, sampled from the document so every generated
     request has a chance of matching rows; large pools keep most
     requests structurally distinct, which is what makes the cold
     batch pay for compilation *)
  let pool path =
    match Array.of_list (Inputs.distinct (Xq_eval.path_values doc path)) with
    | [||] -> failwith "serve_perf: empty constant pool"
    | arr -> Array.sub arr 0 (min 2000 (Array.length arr))
  in
  let years = pool [ "show"; "year" ] in
  let names = pool [ "actor"; "name" ] in
  let titles = pool [ "show"; "title" ] in
  let n_req = if smoke then 120 else 2000 in
  let rng = Random.State.make [| 20260808 |] in
  let draw arr = arr.(Random.State.int rng (Array.length arr)) in
  let req_texts =
    Array.init n_req (fun _ ->
        match Random.State.int rng 4 with
        | 0 -> Inputs.t_year (draw years)
        | 1 -> Inputs.t_name (draw names)
        | 2 -> Inputs.t_join (draw names)
        | _ -> Inputs.t_title (draw titles))
  in
  let reqs =
    Array.mapi
      (fun i text -> Xq_parse.parse ~name:(Printf.sprintf "req%d" i) text)
      req_texts
  in
  let rows = ref [] in
  let emit row = rows := row :: !rows in
  let summary_of label wall_s latencies =
    let s = Serve.summarize ~wall_s latencies in
    Printf.printf "%-9s %s\n%!" label
      (Format.asprintf "%a" Serve.pp_summary s);
    emit
      [
        ("kind", Str "pass");
        ("pass", Str label);
        ("n", Int s.Serve.n);
        ("wall_s", Num s.Serve.wall_s);
        ("qps", Num s.Serve.qps);
        ("p50_ms", Num s.Serve.p50_ms);
        ("p95_ms", Num s.Serve.p95_ms);
        ("p99_ms", Num s.Serve.p99_ms);
      ];
    s
  in
  (* A repeated pass is an array of rounds, each its wall clock and
     per-request latencies.  [report p] reports the round at the [p]th
     percentile of wall time, the best (p = 0) for the best-of gates
     and the median (p = 50) for the gates that compare interleaved
     rounds, and prints the spread of all the rounds. *)
  let report p label samples =
    let w, l = pick p fst samples in
    let s = summary_of label w l in
    if Array.length samples > 1 then
      Printf.printf "%-9s %d rounds: qps %s\n%!" label (Array.length samples)
        (spread (Array.map (fun (w, _) -> float_of_int n_req /. w) samples));
    s
  in
  (* one timed batch: its wall clock and per-request latencies *)
  let run_once srv () =
    let replies, wall_s = time (fun () -> Serve.run_batch srv reqs) in
    let latencies =
      Array.map
        (function
          | Ok (r : Serve.reply) -> r.Serve.latency_s
          | Error e -> failwith ("serve_perf: " ^ e))
        replies
    in
    (wall_s, latencies)
  in
  (* a 2000-request batch is 10-30ms of wall time, so gated passes run
     a few rounds and keep the fastest — the measurement least
     disturbed by whatever else the machine was doing *)
  let batch n srv label =
    report 0. label (List.hd (rounds n [ run_once srv ]))
  in
  let cold = batch 1 server "cold" in
  let warm = batch (if smoke then 1 else 3) server "warm" in
  let stats_after = Serve.stats server in
  Printf.printf "%s\n%!"
    (Format.asprintf "%a" Serve.pp_stats stats_after);
  if stats_after.Serve.cache_hits <= 0 then
    failwith "serve_perf: no plan-cache hits";
  (* plans are per template, and only the worker whose plan is stored
     counts a miss, so the count is exact at any -j *)
  if stats_after.Serve.cache_misses <> n_templates then
    failwith
      (Printf.sprintf
         "serve_perf: %d compilations for a batch of %d templates"
         stats_after.Serve.cache_misses n_templates);
  if warm.Serve.qps <= 0. then failwith "serve_perf: zero warm qps";
  (* cache on vs cache off over the same requests, sequentially, so
     the comparison isolates exactly what the cache saves *)
  let sequential label ~use_cache =
    let replies, wall_s =
      time (fun () -> Array.map (fun q -> Serve.query ~use_cache server q) reqs)
    in
    summary_of label wall_s
      (Array.map (fun (r : Serve.reply) -> r.Serve.latency_s) replies)
  in
  let cached = sequential "cached" ~use_cache:true in
  let nocache = sequential "nocache" ~use_cache:false in
  if not smoke then begin
    if warm.Serve.qps <= cold.Serve.qps then
      failwith
        (Printf.sprintf "serve_perf: warm qps %.0f not above cold %.0f"
           warm.Serve.qps cold.Serve.qps);
    if cached.Serve.qps <= nocache.Serve.qps then
      failwith
        (Printf.sprintf "serve_perf: cached qps %.0f not above nocache %.0f"
           cached.Serve.qps nocache.Serve.qps)
  end;
  (* differential checks on a sampled sub-workload *)
  let snap = Serve.snapshot server in
  let cat = Storage.catalog snap in
  let n_sample = min (if smoke then 30 else 60) n_req in
  Array.iteri
    (fun i q ->
      if i < n_sample then begin
        let served = (Serve.query server q).Serve.rows in
        let lq = Xq_translate.translate m q in
        let plans =
          List.map
            (fun (b : Logical.block) ->
              ( (Optimizer.optimize_block ~params:mem_params cat b)
                  .Optimizer.plan,
                b.Logical.out ))
            lq.Logical.blocks
        in
        let one_shot, _ = Executor.run_query snap plans in
        if served <> one_shot then
          failwith
            (Printf.sprintf "serve_perf: request %d differs from one-shot path"
               i);
        let expected = Xq_eval.count_bindings doc q in
        if List.length served <> expected then
          failwith
            (Printf.sprintf
               "serve_perf: request %d returned %d rows, tree evaluator says %d"
               i (List.length served) expected)
      end)
    reqs;
  Printf.printf
    "differential: %d sampled requests match the one-shot executor and the \
     tree evaluator\n\
     %!"
    n_sample;
  (* append + publish: readers keep the old snapshot until the barrier *)
  let extra = Imdb.Gen.generate { Imdb.Gen.default with Imdb.Gen.seed = 99 } in
  let rows_before = Storage.total_rows (Serve.snapshot server) in
  Serve.append server extra;
  if Storage.total_rows (Serve.snapshot server) <> rows_before then
    failwith "serve_perf: append visible before publish";
  let (), t_publish = time (fun () -> Serve.publish server) in
  let rows_after = Storage.total_rows (Serve.snapshot server) in
  if rows_after <= rows_before then
    failwith "serve_perf: publish did not grow the snapshot";
  Printf.printf "publish: %d -> %d rows in %.3fs\n%!" rows_before rows_after
    t_publish;
  let post = batch 1 server "post-pub" in
  let final = Serve.stats server in
  emit
    [
      ("kind", Str "serve");
      ("scale", Num scale);
      ("rows", Int total);
      ("rows_after", Int rows_after);
      ("jobs", Int jobs);
      ("requests", Int n_req);
      ("cold_qps", Num cold.Serve.qps);
      ("warm_qps", Num warm.Serve.qps);
      ("cached_qps", Num cached.Serve.qps);
      ("nocache_qps", Num nocache.Serve.qps);
      ("post_publish_qps", Num post.Serve.qps);
      ("publish_s", Num t_publish);
      ("hits", Int final.Serve.cache_hits);
      ("misses", Int final.Serve.cache_misses);
      ("served", Int final.Serve.served);
      ("publishes", Int final.Serve.snapshots_published);
    ];
  (* ------------------------------------------------------------------
     durability: the same corpus served with a write-ahead log.  Three
     things are measured and recorded: the read path must not regress
     (WAL-on warm throughput gated at >= 0.85x the WAL-off server, the
     median rounds of the two interleaved — a read never touches the
     log, so a bigger gap would mean the durability state leaks into
     the serving path), the write path's log+snapshot overhead, and
     recovery: crash after acked appends, recover, and require
     bit-identical answers. *)
  print_endline "\ndurability (write-ahead log + snapshot):";
  let dur_dir =
    let d = Filename.temp_file "legodb_bench" ".d" in
    Sys.remove d;
    Unix.mkdir d 0o700;
    d
  in
  let dur, t_attach =
    time (fun () ->
        Serve.create ~jobs ~params:mem_params ~data_dir:dur_dir m
          (Shred.shred m doc))
  in
  Printf.printf "standing store: %s (initial snapshot %.2fs)\n%!" dur_dir
    t_attach;
  let _wal_cold = batch 1 dur "wal-cold" in
  (* The WAL-on and WAL-off servers take turns, one batch each per
     round, and the gate compares their median rounds.  A batch lasts
     10-25ms, so best-of-3 taken one server after the other measures
     when each batch ran as much as the read path: the machine's drift
     over a few hundred milliseconds, not the durability state. *)
  let wal_rounds = if smoke then 1 else 20 in
  let wal_runs, ref_runs =
    match rounds wal_rounds [ run_once dur; run_once server ] with
    | [ w; r ] -> (w, r)
    | _ -> assert false
  in
  let wal_warm = report 50. "wal-warm" wal_runs in
  let warm_ref = report 50. "warm-ref" ref_runs in
  if (not smoke) && wal_warm.Serve.qps < 0.85 *. warm_ref.Serve.qps then
    failwith
      (Printf.sprintf
         "serve_perf: WAL-on median warm qps %.0f below 0.85x the WAL-off \
          %.0f"
         wal_warm.Serve.qps warm_ref.Serve.qps);
  (* the net-warm gate below judges the front door, itself timed
     best-of-rounds, against the fastest WAL-off round *)
  let warm_ref_best = float_of_int n_req /. fst (pick 0. fst ref_runs) in
  let extra_docs =
    Array.init 4 (fun i ->
        Imdb.Gen.generate { (Imdb.Gen.scaled 0.002) with Imdb.Gen.seed = 200 + i })
  in
  let (), t_dur_append =
    time (fun () -> Array.iter (Serve.append dur) extra_docs)
  in
  let (), t_dur_publish = time (fun () -> Serve.publish dur) in
  Printf.printf "durable appends: %d in %.3fs (fsync each), publish %.3fs\n%!"
    (Array.length extra_docs) t_dur_append t_dur_publish;
  (* published answers, then two acked-but-unpublished appends, then
     the crash: the handle is abandoned with its log fsynced — exactly
     the disk a kill -9 leaves *)
  let n_sample_dur = min n_sample n_req in
  let pre =
    Array.init n_sample_dur (fun i -> (Serve.query dur reqs.(i)).Serve.rows)
  in
  Serve.append dur extra_docs.(0);
  Serve.append dur extra_docs.(1);
  let (recovered, rinfo), t_recover =
    time (fun () ->
        Serve.recover ~jobs ~params:mem_params ~mapping:m ~dir:dur_dir ())
  in
  Printf.printf "recovery: %s in %.3fs\n%!"
    (Format.asprintf "%a" Serve.pp_recovery rinfo)
    t_recover;
  if (Serve.stats recovered).Serve.pending_appends <> 2 then
    failwith "serve_perf: recovery lost acked appends";
  Array.iteri
    (fun i rows ->
      if (Serve.query recovered reqs.(i)).Serve.rows <> rows then
        failwith
          (Printf.sprintf
             "serve_perf: recovered answer %d differs from the pre-crash \
              server"
             i))
    pre;
  Printf.printf
    "differential: %d recovered answers bit-identical to the pre-crash \
     server\n\
     %!"
    n_sample_dur;
  emit
    [
      ("kind", Str "durability");
      ("rounds", Int wal_rounds);
      ("wal_warm_qps", Num wal_warm.Serve.qps);
      ("wal_off_qps", Num warm_ref.Serve.qps);
      ("qps_ratio", Num (wal_warm.Serve.qps /. warm_ref.Serve.qps));
      ("initial_snapshot_s", Num t_attach);
      ("append_fsync_s", Num t_dur_append);
      ("durable_publish_s", Num t_dur_publish);
      ("recover_s", Num t_recover);
      ("snapshot_rows", Int rinfo.Serve.r_snapshot_rows);
      ("snapshot_seq", Int rinfo.Serve.r_snapshot_seq);
      ("replayed", Int rinfo.Serve.r_replayed);
      ("skipped", Int rinfo.Serve.r_skipped);
      ("recovered_seq", Int rinfo.Serve.r_recovered_seq);
      ("dropped_bytes", Int rinfo.Serve.r_dropped_bytes);
      ( "torn",
        match rinfo.Serve.r_torn with None -> Null | Some w -> Str w );
    ];
  (* ------------------------------------------------------------------
     network pass: the warm workload again, but through the TCP front
     door — queries travel as source text, get parsed and batched
     server-side, and the sampled answers must be bit-identical to the
     in-process path (compared after the server threads are joined, so
     the two paths never overlap). *)
  print_endline "\nnetwork (TCP front door):";
  (* a tick loop over [srv] on its own thread: the port it listens on,
     and a function that stops it, wakes it with [close] (which closes
     its clients) and returns the loop's counters *)
  let start_loop ?group_commit_ms srv =
    let stop = ref false and port_cell = ref None in
    let net_cell = ref Net.net_stats_zero in
    let th =
      Thread.create
        (fun () ->
          net_cell :=
            Net.serve ?group_commit_ms ~stop
              ~on_listen:(fun p -> port_cell := Some p)
              ~port:0 srv)
        ()
    in
    let rec await n =
      match !port_cell with
      | Some p -> p
      | None ->
          if n > 500 then failwith "serve_perf: server never listened"
          else begin
            Thread.delay 0.01;
            await (n + 1)
          end
    in
    let port = await 0 in
    ( port,
      fun close ->
        stop := true;
        close ();
        Thread.join th;
        !net_cell )
  in
  (* A client's round runs on [conc] connections to a fresh loop over
     the server: an untimed pass fills the loop's replay cache, then
     the timed pass replays the warm workload.  The round returns the
     timed pass's wall clock, per-request latencies and sampled rows,
     and the loop's counters over both passes.  The clients take turns
     for [net_rounds] rounds. *)
  let net_rounds = if smoke then 1 else 5 in
  let loop_line netstats =
    Printf.printf
      "  loop: %d ticks, %d batches (%d shared, max %d), %d replayed, \
       %.3fs select / %.3fs work, %d B in / %d B out\n\
       %!"
      netstats.Net.ticks netstats.Net.batches
      (Net.shared_batches netstats)
      netstats.Net.max_batch netstats.Net.replayed netstats.Net.select_s
      netstats.Net.work_s netstats.Net.bytes_in netstats.Net.bytes_out
  in
  let client ~conc play () =
    let port, stop = start_loop server in
    let peers = Array.init conc (fun _ -> Net.connect ~port ()) in
    let pass () =
      let lat = Array.make n_req 0. in
      let rows = Array.make n_sample [] in
      let (), wall = time (fun () -> play peers lat rows) in
      (wall, lat, rows)
    in
    ignore (pass ());
    let wall, lat, rows = pass () in
    (wall, (lat, rows, stop (fun () -> Array.iter Net.close peers)))
  in
  (* the strict-RPC client: one request in flight, every response
     decoded — the methodology every earlier serve_perf reported *)
  let rpc peers lat rows =
    Array.iteri
      (fun i text ->
        let reply, dt = time (fun () -> Net.rpc peers.(0) (Net.Query text)) in
        lat.(i) <- dt;
        match reply with
        | Net.Rows { rows = r; _ } -> if i < n_sample then rows.(i) <- r
        | Net.Error_reply e -> failwith ("serve_perf: network: " ^ e)
        | _ -> failwith "serve_perf: unexpected network response")
      req_texts
  in
  (* the load-generator client: [conc] connections, [depth] requests in
     flight per connection (each connection's frames corked into one
     write), responses CRC-validated always but row-decoded only for
     the sampled differential — the redis-benchmark -P discipline.
     Request [base+t] rides connection [t mod conc], so per-connection
     response order is exercised across the whole sweep. *)
  let depth = 16 in
  let cork = Buffer.create 4096 in
  let loadgen peers lat rows =
    let conc = Array.length peers in
    let i = ref 0 in
    while !i < n_req do
      let base = !i in
      let k = min (conc * depth) (n_req - base) in
      let sent = Unix.gettimeofday () in
      for j = 0 to conc - 1 do
        Buffer.clear cork;
        let t = ref j in
        while !t < k do
          Buffer.add_string cork
            (Net.encode_request (Net.Query req_texts.(base + !t)));
          t := !t + conc
        done;
        if Buffer.length cork > 0 then
          Net.send_raw peers.(j) (Buffer.contents cork)
      done;
      for j = 0 to conc - 1 do
        let t = ref j in
        while !t < k do
          let idx = base + !t in
          (if idx < n_sample then
             match Net.recv peers.(j) with
             | Net.Rows { rows = r; _ } -> rows.(idx) <- r
             | Net.Error_reply e -> failwith ("serve_perf: network: " ^ e)
             | _ -> failwith "serve_perf: unexpected network response"
           else
             let p = Net.recv_raw peers.(j) in
             if String.length p < 4 || p.[0] <> 'r' || p.[1] <> 'o' then
               failwith "serve_perf: unexpected network response");
          lat.(idx) <- Unix.gettimeofday () -. sent;
          t := !t + conc
        done
      done;
      i := base + k
    done
  in
  let concs = [ 1; 4; 16; 64 ] in
  let samples =
    rounds net_rounds
      (client ~conc:1 rpc :: List.map (fun conc -> client ~conc loadgen) concs)
  in
  let rpc_samples = List.hd samples in
  (* the net-warm gate reads the best strict-RPC round; the
     16-connection gate compares median rounds *)
  let latencies = Array.map (fun (w, (l, _, _)) -> (w, l)) in
  let net = report 0. "net-warm" (latencies rpc_samples) in
  let _, (_, net_rows, rpc_stats) = pick 0. fst rpc_samples in
  loop_line rpc_stats;
  emit
    [
      ("kind", Str "network");
      ("requests", Int n_req);
      ("rounds", Int net_rounds);
      ("qps", Num net.Serve.qps);
      ("p99_ms", Num net.Serve.p99_ms);
      ("sampled_identical", Int (2 * n_sample));
      ("qps_vs_warm_ref", Num (net.Serve.qps /. warm_ref_best));
    ];
  let rpc_median = float_of_int n_req /. fst (pick 50. fst rpc_samples) in
  let sweep =
    List.map2
      (fun conc samples ->
        let label = Printf.sprintf "net x%-2d d%d" conc depth in
        let s = report 50. label (latencies samples) in
        let _, (_, rows, netstats) = pick 50. fst samples in
        loop_line netstats;
        emit
          [
            ("kind", Str "network_sweep");
            ("conns", Int conc);
            ("depth", Int depth);
            ("requests", Int n_req);
            ("qps", Num s.Serve.qps);
            ("p99_ms", Num s.Serve.p99_ms);
            ("qps_vs_rpc", Num (s.Serve.qps /. rpc_median));
            ("ticks", Int netstats.Net.ticks);
            ("batches", Int netstats.Net.batches);
            ("shared_batches", Int (Net.shared_batches netstats));
            ("max_batch", Int netstats.Net.max_batch);
            ("replayed", Int netstats.Net.replayed);
            ("batch_hist", Ints (Array.to_list netstats.Net.batch_hist));
            ("bytes_in", Int netstats.Net.bytes_in);
            ("bytes_out", Int netstats.Net.bytes_out);
            ("select_s", Num netstats.Net.select_s);
            ("work_s", Num netstats.Net.work_s);
          ];
        (conc, (s, rows, netstats)))
      concs (List.tl samples)
  in
  let net16, net16_rows, net16_stats = List.assoc 16 sweep in
  (* sampled answers from the reported strict-RPC and 16-connection
     rounds, both checked bit-identical to the in-process path after
     the server threads are joined *)
  let check_sample what rows_out =
    Array.iteri
      (fun i rows ->
        if (Serve.query server reqs.(i)).Serve.rows <> rows then
          failwith
            (Printf.sprintf
               "serve_perf: %s answer %d differs from the in-process path"
               what i))
      rows_out
  in
  check_sample "network" net_rows;
  check_sample "network x16" net16_rows;
  Printf.printf
    "differential: %d network answers (rpc and x16) bit-identical to the \
     in-process path\n\
     %!"
    (2 * n_sample);
  if Net.shared_batches net16_stats = 0 then
    failwith
      "serve_perf: no cross-connection batch formed under the 16-connection \
       pass";
  if not smoke then begin
    (* the front door's own cost, judged against the in-process warm-ref
       pass of this same run rather than a number from some other day:
       the pre-batching loop ran at 0.145x of it, the batching loop at
       0.46x (EXPERIMENTS.md, network section) *)
    if net.Serve.qps < 0.25 *. warm_ref_best then
      failwith
        (Printf.sprintf
           "serve_perf: single-connection net-warm qps %.0f below 0.25x the \
            in-process warm-ref %.0f"
           net.Serve.qps warm_ref_best);
    if net16.Serve.qps < 2.5 *. rpc_median then
      failwith
        (Printf.sprintf
           "serve_perf: 16-connection aggregate qps %.0f below 2.5x the \
            single-connection net-warm %.0f (medians of %d rounds)"
           net16.Serve.qps rpc_median net_rounds)
  end;
  (* ------------------------------------------------------------------
     group commit: append throughput on the recovered WAL-on server.
     The k=1 pass is the PR 8 discipline (one fsync per append); the
     grouped passes stage k appends per flush.  What group commit buys
     is fsyncs/append, so the gate reads exactly that counter. *)
  print_endline "\ngroup commit (append path, WAL on):";
  (* a tiny document (~10 rows, ~1KB of XML): shredding it costs well
     under one fsync, so the sweep measures the commit discipline, not
     the shredder *)
  let tiny =
    Imdb.Gen.generate { (Imdb.Gen.scaled 0.00001) with Imdb.Gen.seed = 1234 }
  in
  let n_app = if smoke then 16 else 128 in
  (* each round is only tens of milliseconds of wall time, so one slow
     fsync (the disk is shared) can swing a single measurement by 30%:
     after one untimed round per group size, the sizes take turns for
     [gc_rounds] rounds and each reports its median round *)
  let gc_rounds = if smoke then 1 else 9 in
  (* one round of [n_app] appends in groups of [k]: its wall clock,
     then its fsyncs per append and each commit's latency *)
  let commit_round k () =
    let s0 = Serve.stats recovered in
    let commits = ref [] in
    let rec go left =
      if left > 0 then begin
        let chunk = min k left in
        let (), t_commit =
          time (fun () ->
              if chunk = 1 then Serve.append recovered tiny
              else
                List.iter
                  (function
                    | Ok () -> () | Error e -> failwith ("serve_perf: " ^ e))
                  (Serve.append_group recovered
                     (List.init chunk (fun _ -> tiny))))
        in
        commits := t_commit :: !commits;
        go (left - chunk)
      end
    in
    let (), wall = time (fun () -> go n_app) in
    let s1 = Serve.stats recovered in
    ( wall,
      ( float_of_int (s1.Serve.wal_fsyncs - s0.Serve.wal_fsyncs)
        /. float_of_int (s1.Serve.wal_appends - s0.Serve.wal_appends),
        Array.of_list !commits ) )
  in
  let groups = [ 1; 2; 4; 8; 16 ] in
  List.iter (fun k -> ignore (commit_round k ())) groups;
  let grouped =
    List.map2
      (fun k samples ->
        let wall = fst (pick 50. fst samples) in
        let qps = float_of_int n_app /. wall in
        (* every round logs [n_app] appends, so the mean of the rounds'
           ratios is the ratio over all of them *)
        let ratio =
          Array.fold_left (fun a (_, (r, _)) -> a +. r) 0. samples
          /. float_of_int gc_rounds
        in
        let commits = Array.map (fun (_, (_, c)) -> c) samples in
        let p99_commit_ms =
          1000. *. Bstat.percentile 99. (Array.concat (Array.to_list commits))
        in
        Printf.printf
          "group=%-3d %d appends (median of %d) in %.3fs: %7.0f appends/s, \
           %.3f fsyncs/append, p99 commit %.2fms\n\
           %!"
          k n_app gc_rounds wall qps ratio p99_commit_ms;
        let rates = Array.map (fun (w, _) -> float_of_int n_app /. w) samples in
        if gc_rounds > 1 then
          Printf.printf "  appends/s over %d rounds: %s\n%!" gc_rounds
            (spread rates);
        emit
          [
            ("kind", Str "group_commit");
            ("group", Int k);
            ("appends", Int n_app);
            ("rounds", Int gc_rounds);
            ("wall_s", Num wall);
            ("append_qps", Num qps);
            ("fsyncs_per_append", Num ratio);
            ("p99_commit_ms", Num p99_commit_ms);
          ];
        (k, (qps, ratio)))
      groups
      (rounds gc_rounds (List.map commit_round groups))
  in
  let base_qps, base_ratio = List.assoc 1 grouped in
  if not smoke then begin
    if base_ratio < 0.999 then
      failwith "serve_perf: fsync-per-append baseline ratio below 1.0";
    List.iter
      (fun (k, (qps, ratio)) ->
        if k >= 8 then begin
          if qps < 1.5 *. base_qps then
            failwith
              (Printf.sprintf
                 "serve_perf: group=%d append qps %.0f below 1.5x the \
                  fsync-per-append baseline %.0f (medians of %d rounds)"
                 k qps base_qps gc_rounds);
          if ratio >= 0.25 then
            failwith
              (Printf.sprintf
                 "serve_perf: group=%d fsyncs/append %.3f not below 0.25" k
                 ratio)
        end)
      grouped
  end;
  (* the same append path through the network front door: pipelined
     appends share commit groups bounded by --group-commit-ms *)
  List.iter
    (fun gc_ms ->
      let s0 = Serve.stats recovered in
      let sends = Array.make n_app 0. in
      let acks = Array.make n_app 0. in
      let text = Xml.to_string tiny in
      let port, stop = start_loop ~group_commit_ms:gc_ms recovered in
      let c = Net.connect ~port () in
      let (), wall =
        time (fun () ->
            for i = 0 to n_app - 1 do
              sends.(i) <- Unix.gettimeofday ();
              Net.send c (Net.Append text)
            done;
            for i = 0 to n_app - 1 do
              (match Net.recv c with
              | Net.Acked -> ()
              | Net.Error_reply e -> failwith ("serve_perf: network: " ^ e)
              | _ -> failwith "serve_perf: unexpected append response");
              acks.(i) <- Unix.gettimeofday ()
            done)
      in
      ignore (stop (fun () -> Net.close c));
      let s1 = Serve.stats recovered in
      let appends = s1.Serve.wal_appends - s0.Serve.wal_appends in
      let fsyncs = s1.Serve.wal_fsyncs - s0.Serve.wal_fsyncs in
      let ratio = float_of_int fsyncs /. float_of_int appends in
      let qps = float_of_int n_app /. wall in
      let lat = Array.init n_app (fun i -> acks.(i) -. sends.(i)) in
      let s = Serve.summarize ~wall_s:wall lat in
      Printf.printf
        "net gc=%-2dms %d pipelined appends: %7.0f appends/s, %.3f \
         fsyncs/append, ack p99 %.2fms\n\
         %!"
        gc_ms n_app qps ratio s.Serve.p99_ms;
      emit
        [
          ("kind", Str "group_commit_net");
          ("group_commit_ms", Int gc_ms);
          ("appends", Int n_app);
          ("append_qps", Num qps);
          ("fsyncs_per_append", Num ratio);
          ("ack_p99_ms", Num s.Serve.p99_ms);
        ])
    [ 0; 5; 20 ];
  (* the recovered server is disposable: drop its files *)
  Array.iter
    (fun f -> Sys.remove (Filename.concat dur_dir f))
    (Sys.readdir dur_dir);
  Unix.rmdir dur_dir;
  record ~smoke ~jobs "serve_perf" (List.rev !rows)
