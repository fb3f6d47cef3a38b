(* Cross-module integration: the relational answer of a translated query
   must match the reference XQuery evaluator on the same document,
   whatever storage configuration is chosen; and the optimizer's
   estimates must rank configurations consistently with actual work. *)

open Legodb
open Test_util

let doc = small_imdb_doc

let configurations =
  lazy
    (let d = Lazy.force doc in
     let annotated = Annotate.schema (Collector.collect d) Imdb.Schema.schema in
     let ps0 = Init.normalize annotated in
     let dist =
       let loc =
         match
           List.find_opt
             (fun (_, t) -> match t with Xtype.Choice _ -> true | _ -> false)
             (Xtype.locations (Xschema.find ps0 "Show"))
         with
         | Some (l, _) -> l
         | None -> failwith "no union"
       in
       Rewrite.distribute_union ps0 ~tname:"Show" ~loc
     in
     [
       ("all-inlined", Init.all_inlined annotated);
       ("all-outlined", Init.all_outlined annotated);
       ("ps0", ps0);
       ("distributed", dist);
     ])

let run_query m db (q : Xq_ast.t) =
  let lq = Xq_translate.translate m q in
  let cat =
    Rschema.add_indexes (Storage.catalog db)
      (Xq_translate.equality_columns [ lq ])
  in
  let plans =
    List.map
      (fun (b : Logical.block) ->
        let r = Optimizer.optimize_block cat b in
        (r.Optimizer.plan, b.Logical.out))
      lq.Logical.blocks
  in
  Executor.run_query db plans

(* queries whose return paths are mandatory and single-valued: the main
   block row count equals the number of satisfying binding tuples *)
let comparable_queries =
  [
    (* by title: mandatory returns only *)
    "FOR $v IN document(\"x\")/imdb/show WHERE $v/year = 1900 RETURN $v/title, $v/year, $v/type";
    "FOR $v IN document(\"x\")/imdb/actor RETURN $v/name";
    "FOR $v IN document(\"x\")/imdb/show $e IN $v/episodes RETURN $v/title, $e/name";
    "FOR $i IN document(\"x\")/imdb $a in $i/actor, $m1 in $a/played RETURN $a/name, $m1/title";
    "FOR $i IN document(\"x\")/imdb $a in $i/actor, $m1 in $a/played, $d in $i/director, $m2 in $d/directed WHERE $a/name = $d/name AND $m1/title = $m2/title RETURN $a/name, $m1/title, $m1/year";
  ]

let suite =
  [
    case "relational answers match the reference evaluator" (fun () ->
        let d = Lazy.force doc in
        List.iter
          (fun (cname, schema) ->
            let m = mapping_of schema in
            let db = Storage.freeze (Shred.shred m d) in
            List.iteri
              (fun i text ->
                let q = Xq_parse.parse ~name:(Printf.sprintf "cmp%d" i) text in
                let expected = Xq_eval.count_bindings d q in
                let rows, _ = run_query m db q in
                Alcotest.(check int)
                  (Printf.sprintf "%s / cmp%d" cname i)
                  expected (List.length rows))
              comparable_queries)
          (Lazy.force configurations));
    case "query answers agree across configurations" (fun () ->
        let d = Lazy.force doc in
        let counts =
          List.map
            (fun (cname, schema) ->
              let m = mapping_of schema in
              let db = Storage.freeze (Shred.shred m d) in
              let q = Imdb.Queries.q 12 in
              let rows, _ = run_query m db q in
              (cname, List.length rows))
            (Lazy.force configurations)
        in
        match counts with
        | (_, first) :: rest ->
            List.iter
              (fun (cname, n) -> Alcotest.(check int) cname first n)
              rest
        | [] -> Alcotest.fail "no configurations");
    case "reference evaluator confirms Q12 on generated data" (fun () ->
        (* the generator overlaps actor and director names on purpose *)
        let d = Lazy.force doc in
        let expected = Xq_eval.count_bindings d (Imdb.Queries.q 12) in
        check_bool "count computed" true (expected >= 0));
    case "estimates rank scan-heavy vs probe-heavy plans like reality"
      (fun () ->
        let d = Lazy.force doc in
        let _, schema = List.hd (Lazy.force configurations) in
        let m = mapping_of schema in
        let db = Storage.freeze (Shred.shred m d) in
        let cat = Storage.catalog db in
        (* publish-all vs a selective lookup: estimates and actual bytes
           read must order the same way *)
        let publish = Xq_translate.translate m (Imdb.Queries.q 16) in
        let lookup = Xq_translate.translate m (Imdb.Queries.q 19) in
        let cat =
          Rschema.add_indexes cat (Xq_translate.equality_columns [ lookup ])
        in
        let cost q = snd (Optimizer.query_cost cat q) in
        let work (q : Logical.query) =
          let plans =
            List.map
              (fun (b : Logical.block) ->
                ((Optimizer.optimize_block cat b).Optimizer.plan, b.Logical.out))
              q.Logical.blocks
          in
          let _, ms = Executor.run_query db plans in
          ms.Executor.bytes_read
        in
        check_bool "estimate order" true (cost publish > cost lookup);
        check_bool "actual order" true (work publish > work lookup));
    case "publish queries return every stored row once" (fun () ->
        let d = Lazy.force doc in
        let _, schema = List.hd (Lazy.force configurations) in
        let m = mapping_of schema in
        let db = Storage.freeze (Shred.shred m d) in
        let rows, _ = run_query m db (Imdb.Queries.q 15) in
        (* actors + played + awards rows (per-table blocks) *)
        let expected =
          Storage.row_count db "Actor"
          + Storage.row_count db "Played"
          + Storage.row_count db "Award"
        in
        Alcotest.(check int) "actor subtree rows" expected (List.length rows));
    case "wildcard query finds the right sources" (fun () ->
        let d = Lazy.force doc in
        let _, schema = List.hd (Lazy.force configurations) in
        let m = mapping_of schema in
        let db = Storage.freeze (Shred.shred m d) in
        let q =
          Xq_parse.parse ~name:"nyt"
            "FOR $v in imdb/show RETURN $v/title, $v/reviews/nyt"
        in
        let rows, _ = run_query m db q in
        let expected =
          List.length
            (List.filter
               (fun r -> Xml.child_elements "nyt" r <> [])
               (Xml.select [ "imdb"; "show"; "reviews" ] d))
        in
        Alcotest.(check int) "nyt reviews" expected (List.length rows));
  ]

(* cost-model calibration: the estimates must order (query, config)
   pairs the same way the executor's actual work does, whenever the
   estimated gap is substantial *)
let calibration_suite =
  [
    case "estimate orderings agree with actual bytes read" (fun () ->
        let d = Lazy.force doc in
        let points =
          List.concat_map
            (fun (cname, schema) ->
              let m = mapping_of schema in
              let db = Storage.freeze (Shred.shred m d) in
              let cat = Storage.catalog db in
              List.map
                (fun qn ->
                  let q = Xq_translate.translate m (Imdb.Queries.q qn) in
                  let _, est = Optimizer.query_cost cat q in
                  let plans =
                    List.map
                      (fun (b : Logical.block) ->
                        ( (Optimizer.optimize_block cat b).Optimizer.plan,
                          b.Logical.out ))
                      q.Logical.blocks
                  in
                  let _, ms = Executor.run_query db plans in
                  (Printf.sprintf "%s/Q%d" cname qn, est, ms.Executor.bytes_read))
                [ 3; 7; 15; 16 ])
            (List.filteri (fun i _ -> i < 2) (Lazy.force configurations))
        in
        let violations = ref [] in
        List.iter
          (fun (n1, e1, a1) ->
            List.iter
              (fun (n2, e2, a2) ->
                (* only judge pairs with a clear estimated gap and real
                   work on both sides *)
                if e1 > 4. *. e2 && a1 > 0. && a2 > 0. && a1 < a2 then
                  violations := Printf.sprintf "%s vs %s" n1 n2 :: !violations)
              points)
          points;
        if !violations <> [] then
          Alcotest.failf "ordering violations: %s"
            (String.concat "; " !violations));
  ]

(* every appendix query runs on real data under every configuration *)
let all_queries_suite =
  [
    case "all twenty appendix queries execute everywhere" (fun () ->
        let d = Lazy.force doc in
        List.iter
          (fun (cname, schema) ->
            let m = mapping_of schema in
            let db = Storage.freeze (Shred.shred m d) in
            List.iteri
              (fun i q ->
                match run_query m db q with
                | rows, _ ->
                    check_bool
                      (Printf.sprintf "%s/Q%d non-negative" cname (i + 1))
                      true
                      (List.length rows >= 0)
                | exception e ->
                    Alcotest.failf "%s/Q%d raised %s" cname (i + 1)
                      (Printexc.to_string e))
              Imdb.Queries.all)
          (Lazy.force configurations));
    case "query answers for all queries agree across configurations" (fun () ->
        let d = Lazy.force doc in
        let per_config =
          List.map
            (fun (cname, schema) ->
              let m = mapping_of schema in
              let db = Storage.freeze (Shred.shred m d) in
              ( cname,
                List.map
                  (fun q -> List.length (fst (run_query m db q)))
                  (List.map Imdb.Queries.q [ 1; 2; 3; 8; 12; 14; 18; 20 ]) ))
            (Lazy.force configurations)
        in
        match per_config with
        | (_, first) :: rest ->
            List.iter
              (fun (cname, counts) ->
                Alcotest.(check (list int)) cname first counts)
              rest
        | [] -> Alcotest.fail "no configurations");
  ]
