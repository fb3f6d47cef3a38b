(* The interactive-lookup scenario from the paper's introduction: a
   movie-information web site issuing selective queries (workload W2 is
   lookup-heavy).

   The point of this example: the configuration LegoDB picks for the
   lookup workload beats the one-size-fits-all "inline everything"
   heuristic, both in the optimizer's estimates and in actual work done
   by the executor on the same data.

   Run with:  dune exec examples/web_lookup.exe *)

open Legodb

let actual_bytes mapping db (q : Xq_ast.t) =
  let lq = Xq_translate.translate mapping q in
  let cat = Storage.catalog db in
  let plans =
    List.map
      (fun (b : Logical.block) ->
        ((Optimizer.optimize_block cat b).Optimizer.plan, b.Logical.out))
      lq.Logical.blocks
  in
  let rows, m = Executor.run_query db plans in
  (List.length rows, m.Executor.bytes_read)

let () =
  let doc = Imdb.Gen.generate (Imdb.Gen.scaled 0.02) in
  let stats = Collector.collect doc in
  let workload = Imdb.Workloads.lookup in

  (* the tuned design vs the rule-of-thumb design *)
  let tuned = Legodb.design ~schema:Imdb.Schema.schema ~stats ~workload () in
  let annotated = Annotate.schema stats Imdb.Schema.schema in
  let inlined = Init.all_inlined annotated in
  let inlined_cost = Search.pschema_cost ~workload inlined in

  Printf.printf "estimated workload cost:\n";
  Printf.printf "  all-inlined heuristic : %10.1f\n" inlined_cost;
  Printf.printf "  LegoDB design         : %10.1f  (%.0f%% of heuristic)\n"
    tuned.cost
    (100. *. tuned.cost /. inlined_cost);

  (* check the estimate ordering against real execution *)
  let db_tuned = Storage.freeze (Shred.shred tuned.mapping doc) in
  let m_inlined =
    match Mapping.of_pschema inlined with
    | Ok m -> m
    | Error es -> failwith (String.concat "; " es)
  in
  let db_inlined = Storage.freeze (Shred.shred m_inlined doc) in

  Printf.printf "\nactual bytes read per query (executor):\n";
  Printf.printf "  %-6s %14s %14s\n" "query" "all-inlined" "tuned";
  List.iter
    (fun (q, _) ->
      let n1, b1 = actual_bytes m_inlined db_inlined q in
      let n2, b2 = actual_bytes tuned.mapping db_tuned q in
      assert (n1 = n2);
      Printf.printf "  %-6s %12.0fKB %12.0fKB  (%d rows)\n" q.Xq_ast.name
        (b1 /. 1024.) (b2 /. 1024.) n1)
    workload;

  (* what a point lookup looks like under the tuned design *)
  let q = Imdb.Queries.q 8 in
  Format.printf "\nQ8 under the tuned design:@.%a@." Logical.pp_query
    (Xq_translate.translate tuned.mapping q)
