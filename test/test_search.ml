open Legodb
open Test_util

(* a cheaper workload keeps the search suite fast *)
let tiny_lookup = Workload.of_queries [ Imdb.Queries.q 1; Imdb.Queries.q 8 ]
let tiny_publish = Workload.of_queries [ Imdb.Queries.q 16 ]

let suite =
  [
    case "pschema_cost is positive and finite" (fun () ->
        let s = Init.all_inlined (Lazy.force annotated_imdb) in
        let c = Search.pschema_cost ~workload:tiny_lookup s in
        check_bool "positive" true (c > 0.);
        check_bool "finite" true (Float.is_finite c));
    case "pschema_cost rejects non-p-schemas" (fun () ->
        match Search.pschema_cost ~workload:tiny_lookup Imdb.Schema.schema with
        | _ -> Alcotest.fail "expected Cost_error"
        | exception Search.Cost_error _ -> ());
    case "greedy trace decreases strictly" (fun () ->
        let r = Search.greedy_si ~workload:tiny_lookup (Lazy.force annotated_imdb) in
        let costs = List.map (fun (e : Search.trace_entry) -> e.cost) r.Search.trace in
        let rec decreasing = function
          | a :: (b :: _ as rest) -> a > b && decreasing rest
          | _ -> true
        in
        check_bool "strictly decreasing" true (decreasing costs);
        check_bool "final is last" true
          (abs_float (r.Search.cost -. List.nth costs (List.length costs - 1)) < 1e-9));
    case "greedy result is a p-schema with final cost" (fun () ->
        let r = Search.greedy_si ~workload:tiny_lookup (Lazy.force annotated_imdb) in
        check_bool "p-schema" true (Pschema.is_pschema r.Search.schema);
        let again = Search.pschema_cost ~workload:tiny_lookup r.Search.schema in
        check_bool "cost reproducible" true (abs_float (again -. r.Search.cost) < 1e-6));
    case "greedy is locally optimal" (fun () ->
        let r = Search.greedy_si ~workload:tiny_lookup (Lazy.force annotated_imdb) in
        List.iter
          (fun (_, s') ->
            match Search.pschema_cost ~workload:tiny_lookup s' with
            | c -> check_bool "no better neighbor" true (c >= r.Search.cost -. 1e-6)
            | exception Search.Cost_error _ -> ())
          (Space.neighbors ~kinds:[ Space.K_outline ] r.Search.schema));
    case "join workload prefers outlining unused columns" (fun () ->
        (* Q12 scans Played and Directed; the wide columns it never
           touches (character, info, ...) are worth outlining *)
        let w = Workload.of_queries [ Imdb.Queries.q 12 ] in
        let r = Search.greedy_si ~workload:w (Lazy.force annotated_imdb) in
        check_bool "at least one step" true (List.length r.Search.trace > 1));
    case "publish workload keeps the all-inlined design" (fun () ->
        let r = Search.greedy_si ~workload:tiny_publish (Lazy.force annotated_imdb) in
        let initial = (List.hd r.Search.trace).Search.cost in
        check_bool "little to gain" true (r.Search.cost <= initial));
    case "threshold stops the search early" (fun () ->
        let full = Search.greedy_si ~workload:tiny_lookup (Lazy.force annotated_imdb) in
        let coarse =
          Search.greedy_si ~threshold:0.5 ~workload:tiny_lookup
            (Lazy.force annotated_imdb)
        in
        check_bool "fewer or equal iterations" true
          (List.length coarse.Search.trace <= List.length full.Search.trace));
    case "max_iterations bounds the descent" (fun () ->
        let r =
          Search.greedy ~max_iterations:1 ~kinds:[ Space.K_outline ]
            ~workload:tiny_lookup
            (Init.all_inlined (Lazy.force annotated_imdb))
        in
        check_bool "at most initial + 1" true (List.length r.Search.trace <= 2));
    case "si and so converge to comparable costs" (fun () ->
        let si = Search.greedy_si ~workload:tiny_lookup (Lazy.force annotated_imdb) in
        let so = Search.greedy_so ~workload:tiny_lookup (Lazy.force annotated_imdb) in
        let ratio = Float.max si.Search.cost so.Search.cost
                    /. Float.min si.Search.cost so.Search.cost in
        check_bool "within 3x" true (ratio < 3.));
    case "design facade end to end" (fun () ->
        let d =
          Legodb.design ~schema:Imdb.Schema.schema ~stats:Imdb.Stats.full
            ~workload:tiny_lookup ()
        in
        check_bool "cost positive" true (d.Legodb.cost > 0.);
        check_bool "catalog nonempty" true
          (d.Legodb.mapping.Mapping.catalog.Rschema.tables <> []);
        (* the report renders *)
        let s = Format.asprintf "%a" Legodb.report d in
        check_bool "report mentions tables" true (contains s "TABLE"));
  ]

(* beam search *)
let beam_suite =
  [
    case "beam never loses to greedy" (fun () ->
        let schema = Lazy.force annotated_imdb in
        let w = Workload.of_queries [ Imdb.Queries.q 12 ] in
        let g = Search.greedy_si ~workload:w schema in
        let b =
          Search.beam ~width:3 ~kinds:[ Space.K_outline ] ~workload:w
            (Init.all_inlined schema)
        in
        check_bool "beam <= greedy" true (b.Search.cost <= g.Search.cost +. 1e-6));
    case "beam trace is monotone in best cost" (fun () ->
        let schema = Lazy.force annotated_imdb in
        let w = Workload.of_queries [ Imdb.Queries.q 1; Imdb.Queries.q 8 ] in
        let b =
          Search.beam ~width:2 ~kinds:[ Space.K_outline ] ~workload:w
            (Init.all_inlined schema)
        in
        let costs = List.map (fun (e : Search.trace_entry) -> e.cost) b.Search.trace in
        let rec decreasing = function
          | a :: (b :: _ as r) -> a > b && decreasing r
          | _ -> true
        in
        check_bool "decreasing" true (decreasing costs);
        check_bool "result is a p-schema" true (Pschema.is_pschema b.Search.schema));
    case "beam with all transformation kinds stays stratified" (fun () ->
        let schema = Lazy.force annotated_imdb in
        let w = Workload.of_queries [ Imdb.Queries.q 4 ] in
        let b =
          Search.beam ~width:2 ~patience:1 ~max_iterations:4
            ~kinds:Space.all_kinds ~workload:w (Init.normalize schema)
        in
        check_bool "p-schema" true (Pschema.is_pschema b.Search.schema);
        check_bool "cost sane" true (b.Search.cost > 0.));
    case "beam pins on the full statistics (-j 1 and -j 2)" (fun () ->
        (* the designs, cost bits and counts beam read before candidates
           were prepared once; the hit/miss split depends on scheduling
           at -j 2, so it is pinned at -j 1 only, where the frozen beam
           loop must also agree *)
        let start = Init.all_inlined (Lazy.force annotated_imdb) in
        List.iter
          (fun (name, cost, bits, configurations, hits, misses) ->
            let workload = List.assoc name builtin_workloads in
            let (ref_schema, ref_cost), visited =
              List.assoc name (Lazy.force reference_beams)
            in
            List.iter
              (fun jobs ->
                let what = Printf.sprintf "%s -j %d" name jobs in
                let r = Search.beam ~jobs ~workload start in
                let e = r.Search.engine in
                check_string (what ^ ": cost") cost
                  (Printf.sprintf "%.1f" r.Search.cost);
                check_string (what ^ ": cost bits") bits
                  (Printf.sprintf "%h" r.Search.cost);
                check_int (what ^ ": configurations") configurations
                  e.Cost_engine.evaluations;
                if jobs = 1 then begin
                  check_int (what ^ ": hits") hits e.Cost_engine.hits;
                  check_int (what ^ ": misses") misses e.Cost_engine.misses;
                  check_string (what ^ ": the frozen loop's cost")
                    (Printf.sprintf "%h" ref_cost)
                    (Printf.sprintf "%h" r.Search.cost);
                  check_string (what ^ ": the frozen loop's design")
                    (Xschema.to_string ref_schema)
                    (Xschema.to_string r.Search.schema);
                  check_int (what ^ ": the frozen loop's configurations")
                    (List.length visited) e.Cost_engine.evaluations
                end)
              [ 1; 2 ])
          [
            ("lookup", "8009.2", "0x1.f493fde9abf0cp+12", 1342, 5832, 878);
            ("publish", "16160.4", "0x1.f9036de8ca11cp+13", 556, 1550, 118);
            ("mixed 0.5", "13162.9", "0x1.9b56cd166e35ep+13", 556, 3836, 612);
          ]);
  ]
