(* The catalog-publishing scenario from the paper's introduction: a
   cable company routinely exports large parts of the movie database
   (workload W1 is publish-heavy).

   This example runs the whole pipeline end to end on generated data:

     generate -> collect statistics -> design for the publish workload
     -> shred the document into the chosen tables -> run the publishing
     queries on the actual rows -> reconstruct the XML catalog.

   Run with:  dune exec examples/movie_catalog.exe *)

open Legodb

let time name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Printf.printf "%-28s %6.2fs\n%!" name (Unix.gettimeofday () -. t0);
  r

let () =
  (* a mid-sized synthetic IMDB (2% of the paper's scale) *)
  let doc =
    time "generate" (fun () -> Imdb.Gen.generate (Imdb.Gen.scaled 0.02))
  in
  Printf.printf "document: %d elements\n" (Xml.count_elements doc);

  (* statistics come from the data itself, as Figure 7 prescribes *)
  let stats = time "collect statistics" (fun () -> Collector.collect doc) in

  (* design for the publishing workload *)
  let d =
    time "design (publish)" (fun () ->
        Legodb.design ~schema:Imdb.Schema.schema ~stats
          ~workload:Imdb.Workloads.publish ())
  in
  Printf.printf "chosen configuration: %d tables, estimated cost %.1f\n"
    (List.length d.mapping.Mapping.catalog.Rschema.tables)
    d.cost;

  (* load the document into the chosen configuration *)
  let db = time "shred" (fun () -> Shred.shred d.mapping doc) in
  Printf.printf "loaded %d rows\n" (Storage.total_rows db);
  let db = Storage.freeze db in

  (* run Q16 ("publish all shows") on the real rows *)
  let q16 = Xq_translate.translate d.mapping (Imdb.Queries.q 16) in
  let cat = Storage.catalog db in
  let plans =
    List.map
      (fun (b : Logical.block) ->
        ((Optimizer.optimize_block cat b).Optimizer.plan, b.Logical.out))
      q16.Logical.blocks
  in
  let rows, measures =
    time "execute Q16" (fun () -> Executor.run_query db plans)
  in
  Printf.printf "Q16 produced %d rows (%.1f KB read)\n" (List.length rows)
    (measures.Executor.bytes_read /. 1024.);

  (* reconstruct the catalog as XML — the actual export *)
  let doc' = time "publish document" (fun () -> Publish.document db d.mapping) in
  Printf.printf "reconstructed %d elements; round trip %s\n"
    (Xml.count_elements doc')
    (if Xml.equal doc doc' then "exact" else "DIFFERS")
