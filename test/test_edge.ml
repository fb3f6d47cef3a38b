(* Edge cases and failure injection across modules. *)

open Legodb
open Test_util

let suite =
  [
    case "empty tables execute cleanly" (fun () ->
        let m = mapping_of (Init.all_inlined books_schema) in
        let db = Storage.create m.Mapping.catalog in
        let q =
          Xq_parse.parse ~name:"q" "FOR $b IN document(\"x\")/store/book RETURN $b/title"
        in
        let lq = Xq_translate.translate m q in
        let plans =
          List.map
            (fun (b : Logical.block) ->
              ((Optimizer.optimize_block (Storage.catalog db) b).Optimizer.plan, b.Logical.out))
            lq.Logical.blocks
        in
        let rows, _ = Executor.run_query db plans in
        check_int "no rows" 0 (List.length rows));
    case "executor extra predicates filter join results" (fun () ->
        let db = Test_relational.fill_db () in
        let plan =
          Physical.Join
            {
              jm = Physical.Hash_join;
              left =
                Physical.Scan
                  { rel = { Logical.alias = "p"; table = "People" };
                    access = Physical.Seq_scan; filters = [] };
              right =
                Physical.Scan
                  { rel = { Logical.alias = "t"; table = "Pets" };
                    access = Physical.Seq_scan; filters = [] };
              conds = [ (("p", "People_id"), ("t", "parent_People")) ];
              extra =
                [ { Logical.cmp = Logical.C_lt; lhs = ("p", "age");
                    rhs = Logical.O_const (Rtype.V_int 21) } ];
            }
        in
        let rows, _ = Executor.run_block db plan [] in
        (* only age 20 passes: 2 people x 3 pets *)
        check_int "filtered" 6 (List.length rows));
    case "executor null comparisons are false" (fun () ->
        check_bool "null=null" true
          (let db = Test_relational.fill_db () in
           let plan =
             Physical.Scan
               {
                 rel = { Logical.alias = "p"; table = "People" };
                 access = Physical.Seq_scan;
                 filters =
                   [ { Logical.cmp = Logical.C_eq; lhs = ("p", "name");
                       rhs = Logical.O_const Rtype.V_null } ];
               }
           in
           fst (Executor.run_block db plan []) = []));
    case "optimizer rejects empty blocks" (fun () ->
        match
          Optimizer.optimize_block Test_relational.catalog
            { Logical.relations = []; preds = []; out = [] }
        with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    case "cross join without predicates still plans" (fun () ->
        let b =
          {
            Logical.relations =
              [ { Logical.alias = "p"; table = "People" };
                { Logical.alias = "t"; table = "Pets" } ];
            preds = [];
            out = [ ("p", "name") ];
          }
        in
        let r = Optimizer.optimize_block Test_relational.catalog b in
        check_bool "cartesian rows" true (abs_float (r.Optimizer.rows -. 30000.) < 1.));
    case "navigation misses return empty, not exceptions" (fun () ->
        let m = mapping_of (Init.all_inlined (Lazy.force annotated_imdb)) in
        check_int "bad step" 0
          (List.length (Navigate.navigate m { Navigate.ty = "Show"; prefix = [] } "nope"));
        check_int "bad place" 0
          (List.length
             (Navigate.navigate m { Navigate.ty = "Nope"; prefix = [] } "title"));
        check_int "path through scalar" 0
          (List.length
             (Navigate.navigate_path m
                [
                  Navigate.F_elem
                    {
                      hops = [];
                      place = { Navigate.ty = "Show"; prefix = [] };
                    };
                ]
                [ "title"; "deeper" ])));
    case "attribute pipeline end to end (section 2 schema)" (fun () ->
        (* @type is an attribute in the section-2 schema: it must flow
           through mapping, shredding, querying and publishing *)
        let doc =
          Xml.elem "imdb"
            [
              Xml.elem "show"
                ~attrs:[ ("type", "Movie") ]
                [
                  Xml.leaf "title" "T1";
                  Xml.leaf "year" "1999";
                  Xml.leaf "aka" "A1";
                  Xml.leaf "box_office" "7";
                  Xml.leaf "video_sales" "8";
                ];
              Xml.elem "show"
                ~attrs:[ ("type", "TVseries") ]
                [
                  Xml.leaf "title" "T2";
                  Xml.leaf "year" "2000";
                  Xml.leaf "aka" "A2";
                  Xml.leaf "seasons" "3";
                  Xml.leaf "description" "D";
                ];
            ]
        in
        (match Validate.document Imdb.Schema.section2 doc with
        | Ok () -> ()
        | Error e -> Alcotest.failf "invalid: %s" (Format.asprintf "%a" Validate.pp_error e));
        let annotated = Annotate.schema (Collector.collect doc) Imdb.Schema.section2 in
        let m = mapping_of (Init.all_inlined annotated) in
        let db = Storage.freeze (Shred.shred m doc) in
        check_bool "round trip" true (Xml.equal doc (Publish.document db m));
        let q =
          Xq_parse.parse ~name:"bytype"
            "FOR $v IN document(\"x\")/imdb/show WHERE $v/type = Movie RETURN $v/title"
        in
        let lq = Xq_translate.translate m q in
        let plans =
          List.map
            (fun (b : Logical.block) ->
              ((Optimizer.optimize_block (Storage.catalog db) b).Optimizer.plan, b.Logical.out))
            lq.Logical.blocks
        in
        let rows, _ = Executor.run_query db plans in
        check_int "one movie" 1 (List.length rows));
    case "aka{1,10} bounds enforced by section-2 schema" (fun () ->
        let mk n =
          Xml.elem "imdb"
            [
              Xml.elem "show"
                ~attrs:[ ("type", "Movie") ]
                ([ Xml.leaf "title" "T"; Xml.leaf "year" "1999" ]
                @ List.init n (fun i -> Xml.leaf "aka" (string_of_int i))
                @ [ Xml.leaf "box_office" "1"; Xml.leaf "video_sales" "2" ]);
            ]
        in
        check_bool "zero akas invalid" false
          (Result.is_ok (Validate.document Imdb.Schema.section2 (mk 0)));
        check_bool "ten akas valid" true
          (Result.is_ok (Validate.document Imdb.Schema.section2 (mk 10)));
        check_bool "eleven akas invalid" false
          (Result.is_ok (Validate.document Imdb.Schema.section2 (mk 11))));
    case "deep recursion in AnyElement documents" (fun () ->
        let any =
          Xschema.make ~root:"AnyElement"
            [
              {
                Xschema.name = "AnyElement";
                body =
                  Xtype.elem Label.Any
                    (Xtype.rep (Xtype.ref_ "AnyElement") Xtype.star);
              };
            ]
        in
        let rec deep n =
          if n = 0 then Xml.elem "leaf" [] else Xml.elem "node" [ deep (n - 1) ]
        in
        check_bool "valid at depth 200" true
          (Result.is_ok (Validate.document any (deep 200)));
        (* and the mapping stores the whole spine in one table *)
        let m = mapping_of any in
        let db = Shred.shred m (deep 50) in
        check_int "51 rows" 51 (Storage.row_count db "AnyElement");
        check_bool "round trip" true
          (Xml.equal (deep 50) (Publish.document db m)));
    case "workload file parsing via blank-line split survives queries with blank-free bodies"
      (fun () ->
        (* two queries in one string, as the CLI accepts *)
        let text =
          "FOR $v IN document(\"x\")/imdb/show RETURN $v/title\n\n\
           FOR $a IN document(\"x\")/imdb/actor RETURN $a/name"
        in
        let chunks =
          String.split_on_char '\n' text
          |> List.fold_left
               (fun (acc, cur) line ->
                 if String.trim line = "" then
                   match cur with [] -> (acc, []) | c -> (List.rev c :: acc, [])
                 else (acc, line :: cur))
               ([], [])
          |> fun (acc, cur) ->
          List.rev (match cur with [] -> acc | c -> List.rev c :: acc)
        in
        check_int "two chunks" 2 (List.length chunks));
    case "sql rendering of every workload query is well-formed text" (fun () ->
        let m = mapping_of (Init.all_inlined (Lazy.force annotated_imdb)) in
        List.iter
          (fun q ->
            let lq = Xq_translate.translate m q in
            List.iter
              (fun stmt ->
                let s = Sql.to_string stmt in
                check_bool "has SELECT" true (contains s "SELECT");
                check_bool "has FROM" true (contains s "FROM"))
              (Logical.query_to_sql lq))
          Imdb.Queries.all);
  ]
