open Legodb
open Test_util

(* reuse the People/Pets playground *)
let catalog = { Rschema.tables = Test_relational.catalog.Rschema.tables }
let params = Cost.default_params

let rel alias table = { Logical.alias; table }

let block ?(out = []) relations preds = { Logical.relations; preds; out }

let optimize b = Optimizer.optimize_block ~params catalog b

(* the toy tables fit in one page, where scans always win; index tests
   need statistics at realistic scale *)
let big_catalog =
  let scale_table (t : Rschema.table) =
    {
      t with
      Rschema.card = t.Rschema.card *. 1000.;
      columns =
        List.map
          (fun (c : Rschema.column) ->
            { c with Rschema.stats = { c.Rschema.stats with Rschema.distinct = c.Rschema.stats.Rschema.distinct *. 1000. } })
          t.Rschema.columns;
    }
  in
  { Rschema.tables = List.map scale_table catalog.Rschema.tables }

(* NULL-join playground: two tables joined on a nullable column, half
   the rows NULL on each side.  SQL semantics: NULL = NULL is not true,
   so only the (L_id 0, R_id 0) pair with k = 1 may join. *)
let null_catalog =
  let t name =
    {
      Rschema.tname = name;
      key = name ^ "_id";
      columns =
        [
          Test_relational.col (name ^ "_id") Rtype.R_int ~width:4. ~distinct:4.;
          Test_relational.col "k" Rtype.R_int ~nullable:true ~null_frac:0.5
            ~distinct:2.;
        ];
      fks = [];
      indexed = [ name ^ "_id"; "k" ];
      card = 4.;
    }
  in
  { Rschema.tables = [ t "L"; t "R" ] }

let null_db () =
  let db = Storage.create null_catalog in
  let ins t rows =
    List.iter
      (fun (id, k) -> Storage.insert db t [| Rtype.V_int id; k |])
      rows
  in
  ins "L"
    [
      (0, Rtype.V_int 1);
      (1, Rtype.V_null);
      (2, Rtype.V_int 2);
      (3, Rtype.V_null);
    ];
  ins "R"
    [
      (0, Rtype.V_int 1);
      (1, Rtype.V_null);
      (2, Rtype.V_int 3);
      (3, Rtype.V_null);
    ];
  db

let suite =
  [
    case "cost arithmetic" (fun () ->
        let c = Cost.add (Cost.scale 2. { Cost.seeks = 1.; pages_read = 2.; pages_written = 0.; cpu = 10. })
                  Cost.zero in
        check_bool "scaled" true (c.Cost.pages_read = 4.);
        check_bool "total positive" true (Cost.total params c > 0.));
    case "pages rounds up with a floor of one" (fun () ->
        check_bool "floor" true (Cost.pages params 10. = 1.);
        check_bool "ceil" true (Cost.pages params (params.Cost.page_size +. 1.) = 2.));
    case "selectivity: equality on a constant" (fun () ->
        let b = block [ rel "p" "People" ] [ Logical.eq_const ("p", "name") (Rtype.V_string "x") ] in
        let env = Estimate.env catalog b in
        let sel = Estimate.pred_selectivity env (List.hd b.Logical.preds) in
        check_bool "1/distinct" true (abs_float (sel -. 0.01) < 1e-9));
    case "selectivity: join on fk" (fun () ->
        let b =
          block [ rel "p" "People"; rel "t" "Pets" ]
            [ Logical.eq_col ("t", "parent_People") ("p", "People_id") ]
        in
        let env = Estimate.env catalog b in
        check_bool "rows = pets" true
          (abs_float (Estimate.subset_rows env [ "p"; "t" ] -. 300.) < 1.));
    case "base rows apply local filters" (fun () ->
        let b = block [ rel "p" "People" ] [ Logical.eq_const ("p", "age") (Rtype.V_int 30) ] in
        let env = Estimate.env catalog b in
        check_bool "100/50" true (abs_float (Estimate.base_rows env "p" -. 2.) < 1e-6));
    case "output width from projection" (fun () ->
        let b = block [ rel "p" "People" ] [] ~out:[ ("p", "name") ] in
        let env = Estimate.env catalog b in
        check_bool "20" true (Estimate.output_width env b.Logical.out [ "p" ] = 20.);
        check_bool "all columns" true
          (Estimate.output_width env [] [ "p" ] = 28.));
    case "single relation plan is a scan" (fun () ->
        let r = optimize (block [ rel "p" "People" ] []) in
        match r.Optimizer.plan with
        | Physical.Scan { access = Physical.Seq_scan; _ } -> ()
        | _ -> Alcotest.fail "expected a sequential scan");
    case "selective indexed predicate picks the index" (fun () ->
        let cat = Rschema.add_indexes big_catalog [ ("Pets", "parent_People") ] in
        let b =
          block [ rel "t" "Pets" ]
            [ Logical.eq_const ("t", "parent_People") (Rtype.V_int 5) ]
        in
        let r = Optimizer.optimize_block ~params cat b in
        match r.Optimizer.plan with
        | Physical.Scan { access = Physical.Index_probe { column = "parent_People" }; _ } -> ()
        | p -> Alcotest.failf "expected index probe, got %s" (Format.asprintf "%a" Physical.pp p));
    case "unselective predicate keeps the scan" (fun () ->
        (* species has 5 distinct values over 300 rows: scan wins *)
        let cat = Rschema.add_indexes catalog [ ("Pets", "species") ] in
        let b =
          block [ rel "t" "Pets" ]
            [ Logical.eq_const ("t", "species") (Rtype.V_string "cat") ]
        in
        let r = Optimizer.optimize_block ~params cat b in
        match r.Optimizer.plan with
        | Physical.Scan { access = Physical.Seq_scan; _ } -> ()
        | _ -> Alcotest.fail "expected a scan");
    case "fk join estimates child cardinality" (fun () ->
        let b =
          block [ rel "p" "People"; rel "t" "Pets" ]
            [ Logical.eq_col ("t", "parent_People") ("p", "People_id") ]
        in
        let r = optimize b in
        check_bool "rows = 300" true (abs_float (r.Optimizer.rows -. 300.) < 1.));
    case "selective outer side drives index-nl join" (fun () ->
        let b =
          block
            [ rel "p" "People"; rel "t" "Pets" ]
            [
              Logical.eq_const ("p", "People_id") (Rtype.V_int 7);
              Logical.eq_col ("t", "parent_People") ("p", "People_id");
            ]
        in
        let r = Optimizer.optimize_block ~params big_catalog b in
        match r.Optimizer.plan with
        | Physical.Join { jm = Physical.Index_nl _; _ } -> ()
        | p -> Alcotest.failf "expected index-nl, got %s" (Format.asprintf "%a" Physical.pp p));
    case "cost grows with cardinality" (fun () ->
        let big =
          { Rschema.tables =
              [ { (Rschema.table catalog "People") with card = 1_000_000. } ] }
        in
        let b = block [ rel "p" "People" ] [] in
        let small_cost = (optimize b).Optimizer.cost in
        let big_cost = (Optimizer.optimize_block ~params big b).Optimizer.cost in
        check_bool "monotone" true
          (Cost.total params big_cost > Cost.total params small_cost));
    case "query cost shares repeated accesses across blocks" (fun () ->
        (* outer-union blocks of one query share the buffer pool: the
           second identical block pays CPU and output but no I/O *)
        let b = block [ rel "p" "People" ] [] in
        let q1 = { Logical.qname = "q1"; blocks = [ b ] } in
        let q2 = { Logical.qname = "q2"; blocks = [ b; b ] } in
        let _, c1 = Optimizer.query_cost ~params catalog q1 in
        let _, c2 = Optimizer.query_cost ~params catalog q2 in
        check_bool "more than one" true (c2 > c1);
        check_bool "less than double" true (c2 < 2. *. c1));
    case "distinct queries do not share accesses" (fun () ->
        let b = block [ rel "p" "People" ] [] in
        let q = { Logical.qname = "q"; blocks = [ b ] } in
        let _, c1 = Optimizer.query_cost ~params catalog q in
        let _, c1' = Optimizer.query_cost ~params catalog q in
        check_bool "same cost each time" true (abs_float (c1 -. c1') < 1e-9));
    case "workload cost weights queries" (fun () ->
        let b = block [ rel "p" "People" ] [] in
        let q = { Logical.qname = "q"; blocks = [ b ] } in
        let c1 = Optimizer.workload_cost ~params catalog [ (q, 1.) ] in
        let c2 = Optimizer.workload_cost ~params catalog [ (q, 0.5); (q, 0.5) ] in
        check_bool "same" true (abs_float (c1 -. c2) < 1e-6));
    case "block validation rejects unknown columns" (fun () ->
        let b = block [ rel "p" "People" ] [ Logical.eq_const ("p", "ghost") (Rtype.V_int 1) ] in
        match optimize b with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    case "greedy fallback beyond dp_limit" (fun () ->
        (* chain of dp_limit+2 copies of Pets joined on fk to one People *)
        let n = Optimizer.dp_limit + 2 in
        let rels = rel "p" "People" :: List.init n (fun i -> rel (Printf.sprintf "t%d" i) "Pets") in
        let preds =
          List.init n (fun i ->
              Logical.eq_col ((Printf.sprintf "t%d" i), "parent_People") ("p", "People_id"))
        in
        let r = optimize (block rels preds) in
        check_int "all relations in plan" (n + 1)
          (List.length (Physical.relations r.Optimizer.plan)));
    case "executor agrees across join methods" (fun () ->
        let db = Test_relational.fill_db () in
        let b =
          block
            [ rel "p" "People"; rel "t" "Pets" ]
            [
              Logical.eq_col ("t", "parent_People") ("p", "People_id");
              Logical.eq_const ("p", "age") (Rtype.V_int 25);
            ]
        in
        let conds = [ (("p", "People_id"), ("t", "parent_People")) ] in
        let scan_p =
          Physical.Scan
            { rel = rel "p" "People";
              access = Physical.Seq_scan;
              filters = [ Logical.eq_const ("p", "age") (Rtype.V_int 25) ] }
        in
        let scan_t =
          Physical.Scan { rel = rel "t" "Pets"; access = Physical.Seq_scan; filters = [] }
        in
        let run jm right =
          let plan = Physical.Join { jm; left = scan_p; right; conds; extra = [] } in
          fst (Executor.run_block db plan b.Logical.out) |> List.length
        in
        let h = run Physical.Hash_join scan_t in
        let n = run Physical.Nl_join scan_t in
        let i = run (Physical.Index_nl { column = "parent_People" }) scan_t in
        check_int "hash vs nl" h n;
        check_int "hash vs inl" h i;
        (* two people aged 25 (i=5, i=55), three pets each *)
        check_int "expected rows" 6 h);
    case "NULL join keys never match, whatever the join method" (fun () ->
        (* regression: the hash join indexed tuples by structural key,
           so V_null = V_null matched and hash joins returned rows the
           other methods reject through eval_cmp; the index-nl probe
           had the same bug via Storage.lookup on a NULL key *)
        let db = null_db () in
        let scan t alias =
          Physical.Scan
            { rel = rel alias t; access = Physical.Seq_scan; filters = [] }
        in
        let conds = [ (("l", "k"), ("r", "k")) ] in
        let out = [ ("l", "L_id"); ("r", "R_id") ] in
        let run jm =
          let plan =
            Physical.Join
              {
                jm;
                left = scan "L" "l";
                right = scan "R" "r";
                conds;
                extra = [];
              }
          in
          fst (Executor.run_block db plan out)
        in
        let expected = [ [ Rtype.V_int 0; Rtype.V_int 0 ] ] in
        let h = run Physical.Hash_join in
        let n = run Physical.Nl_join in
        let i = run (Physical.Index_nl { column = "k" }) in
        check_bool "hash join skips NULL keys" true (h = expected);
        check_bool "nl join skips NULL keys" true (n = expected);
        check_bool "index-nl join skips NULL keys" true (i = expected));
    case "run_query preserves block order" (fun () ->
        (* regression for the quadratic [rows @ r] accumulation: the
           rewrite must still emit block results in block order *)
        let db = Test_relational.fill_db () in
        let block_for v =
          ( Physical.Scan
              {
                rel = rel "p" "People";
                access = Physical.Index_probe { column = "People_id" };
                filters = [ Logical.eq_const ("p", "People_id") (Rtype.V_int v) ];
              },
            [ ("p", "People_id") ] )
        in
        let ids = [ 3; 1; 4; 1; 5 ] in
        let rows, m = Executor.run_query db (List.map block_for ids) in
        check_bool "rows follow block order" true
          (rows = List.map (fun v -> [ Rtype.V_int v ]) ids);
        check_int "output rows" 5 m.Executor.output_rows);
    case "executor respects index probes" (fun () ->
        let db = Test_relational.fill_db () in
        let plan =
          Physical.Scan
            {
              rel = rel "t" "Pets";
              access = Physical.Index_probe { column = "parent_People" };
              filters = [ Logical.eq_const ("t", "parent_People") (Rtype.V_int 9) ];
            }
        in
        let rows, m = Executor.run_block db plan [] in
        check_int "three" 3 (List.length rows);
        check_int "one probe" 1 m.Executor.index_probes;
        check_int "no scan" 0 m.Executor.tuples_scanned);
    case "optimized plan executes and matches naive count" (fun () ->
        let db = Test_relational.fill_db () in
        let db = Storage.freeze db in
        let b =
          block
            [ rel "p" "People"; rel "t" "Pets" ]
            [
              Logical.eq_col ("t", "parent_People") ("p", "People_id");
              Logical.eq_const ("t", "species") (Rtype.V_string "dog");
            ]
            ~out:[ ("p", "name") ]
        in
        let r = Optimizer.optimize_block ~params (Storage.catalog db) b in
        let rows, _ = Executor.run_block db r.Optimizer.plan b.Logical.out in
        check_int "150 dogs" 150 (List.length rows));
  ]
