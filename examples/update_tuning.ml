(* Update-aware storage design — the extension the paper lists as
   future work ("including updates in our workload", Section 7).

   A read-only workload pushes the design toward vertical partitioning:
   scans get narrower if rarely-used columns live elsewhere.  But every
   extra table makes an insert more expensive (more rows, more index
   maintenance), so as the write rate grows the best design folds
   columns back in.  This example sweeps the insert weight and shows
   the chosen design shrinking.

   Run with:  dune exec examples/update_tuning.exe *)

open Legodb

let () =
  let schema = Annotate.schema Imdb.Stats.full Imdb.Schema.schema in
  (* the reads: the actor-director join query (Q12), which likes the
     Played table narrow; the writes: new actors arriving, which touch
     the whole Actor/Played/Award subtree *)
  let reads = Workload.of_queries [ Imdb.Queries.q 12 ] in
  let insert = Xq_parse.parse_update ~name:"new-actor" "INSERT imdb/actor" in

  Printf.printf "%-14s %-12s %-8s %s\n" "insert weight" "cost" "tables"
    "outlined from the actor subtree";
  List.iter
    (fun weight ->
      let updates = if weight = 0. then [] else [ (insert, weight) ] in
      let engine = Cost_engine.create ~updates ~workload:reads () in
      let r = Search.greedy_si ~engine ~workload:reads schema in
      let final = List.nth r.Search.trace (List.length r.Search.trace - 1) in
      let outlined =
        List.filter_map
          (fun (e : Search.trace_entry) ->
            match e.Search.step with
            | Some (Space.Outline { tname; tag; _ })
              when List.mem tname [ "Actor"; "Played"; "Award" ] ->
                Some tag
            | _ -> None)
          r.Search.trace
      in
      Printf.printf "%-14.0f %-12.1f %-8d %s\n%!" weight r.Search.cost
        final.Search.tables
        (String.concat ", " outlined))
    [ 0.; 5.; 20.; 80. ];

  (* what one actor insert costs under the two extreme designs *)
  let cost_of_insert schema_cfg =
    match Mapping.of_pschema schema_cfg with
    | Ok m ->
        Optimizer.write_cost m.Mapping.catalog
          (Xq_translate.translate_update m insert)
    | Error es -> failwith (String.concat "; " es)
  in
  Printf.printf "\none actor insert: all-inlined %.2f, all-outlined %.2f cost units\n"
    (cost_of_insert (Init.all_inlined schema))
    (cost_of_insert (Init.all_outlined schema))
