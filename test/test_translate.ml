open Legodb
open Test_util

let m_inlined = lazy (mapping_of (Init.all_inlined (Lazy.force annotated_imdb)))
let m_outlined = lazy (mapping_of (Init.all_outlined (Lazy.force annotated_imdb)))

let tables_of (b : Logical.block) =
  List.map (fun (r : Logical.relation) -> r.Logical.table) b.Logical.relations

let suite =
  [
    case "Q1: one block, filter and projection" (fun () ->
        let q = Xq_translate.translate (Lazy.force m_inlined) (Imdb.Queries.q 1) in
        match q.Logical.blocks with
        | [ b ] ->
            check_bool "show table used" true (List.mem "Show" (tables_of b));
            check_int "three output columns" 3 (List.length b.Logical.out);
            check_bool "title filter" true
              (List.exists
                 (fun (p : Logical.pred) ->
                   snd p.Logical.lhs = "title"
                   && p.Logical.rhs = Logical.O_const (Rtype.V_string "c1"))
                 b.Logical.preds)
        | bs -> Alcotest.failf "expected one block, got %d" (List.length bs));
    case "Q1 on all-outlined joins the scalar tables" (fun () ->
        let q = Xq_translate.translate (Lazy.force m_outlined) (Imdb.Queries.q 1) in
        match q.Logical.blocks with
        | [ b ] ->
            List.iter
              (fun t -> check_bool t true (List.mem t (tables_of b)))
              [ "Show"; "Title"; "Year"; "Type" ]
        | _ -> Alcotest.fail "expected one block");
    case "Q16 publish decomposes into outer union" (fun () ->
        let q = Xq_translate.translate (Lazy.force m_inlined) (Imdb.Queries.q 16) in
        (* main block (Show columns) + Aka + Reviews + Episodes *)
        check_int "four blocks" 4 (List.length q.Logical.blocks);
        let main = List.hd q.Logical.blocks in
        check_bool "show columns projected" true
          (List.exists (fun (_, c) -> c = "title") main.Logical.out));
    case "Q19 publish keeps the selection in every block" (fun () ->
        let q = Xq_translate.translate (Lazy.force m_inlined) (Imdb.Queries.q 19) in
        List.iter
          (fun (b : Logical.block) ->
            check_bool "title filter present" true
              (List.exists
                 (fun (p : Logical.pred) -> snd p.Logical.lhs = "title")
                 b.Logical.preds))
          q.Logical.blocks);
    case "Q7 nested FLWR becomes an extra block" (fun () ->
        let q = Xq_translate.translate (Lazy.force m_inlined) (Imdb.Queries.q 7) in
        match q.Logical.blocks with
        | [ main; nested ] ->
            check_bool "main has no episodes" false
              (List.mem "Episodes" (tables_of main));
            check_bool "nested joins episodes" true
              (List.mem "Episodes" (tables_of nested));
            check_bool "nested has guest filter" true
              (List.exists
                 (fun (p : Logical.pred) -> snd p.Logical.lhs = "guest_director")
                 nested.Logical.preds)
        | bs -> Alcotest.failf "expected two blocks, got %d" (List.length bs));
    case "Q12 self-join uses distinct aliases" (fun () ->
        let q = Xq_translate.translate (Lazy.force m_inlined) (Imdb.Queries.q 12) in
        match q.Logical.blocks with
        | [ b ] ->
            let aliases = List.map (fun (r : Logical.relation) -> r.Logical.alias) b.Logical.relations in
            check_int "unique aliases" (List.length aliases)
              (List.length (List.sort_uniq String.compare aliases));
            List.iter
              (fun t -> check_bool t true (List.mem t (tables_of b)))
              [ "Actor"; "Played"; "Director"; "Directed" ]
        | _ -> Alcotest.fail "expected one block");
    case "fk join predicates generated along chains" (fun () ->
        let q = Xq_translate.translate (Lazy.force m_inlined) (Imdb.Queries.q 12) in
        let b = List.hd q.Logical.blocks in
        check_bool "played->actor join" true
          (List.exists
             (fun (p : Logical.pred) ->
               snd p.Logical.lhs = "parent_Actor"
               || (match p.Logical.rhs with
                  | Logical.O_col (_, c) -> c = "parent_Actor"
                  | _ -> false))
             b.Logical.preds));
    case "wildcard step becomes a tag predicate" (fun () ->
        let q = Xq_translate.translate (Lazy.force m_inlined) (Imdb.Queries.fig5 1) in
        let b = List.hd q.Logical.blocks in
        check_bool "tilde = nyt" true
          (List.exists
             (fun (p : Logical.pred) ->
               snd p.Logical.lhs = "tilde"
               && p.Logical.rhs = Logical.O_const (Rtype.V_string "nyt"))
             b.Logical.preds);
        check_bool "value projected" true
          (List.exists (fun (_, c) -> c = "reviews") b.Logical.out));
    case "partitioned schema yields a union of blocks" (fun () ->
        let s2 = Annotate.schema Pathstat.empty Imdb.Schema.section2 in
        let loc =
          match
            List.find_opt
              (fun (_, t) -> match t with Xtype.Choice _ -> true | _ -> false)
              (Xtype.locations (Xschema.find s2 "Show"))
          with
          | Some (l, _) -> l
          | None -> Alcotest.fail "no choice"
        in
        let m = mapping_of (Rewrite.distribute_union s2 ~tname:"Show" ~loc) in
        let q =
          Xq_translate.translate m
            (Xq_parse.parse ~name:"titles"
               "FOR $v in imdb/show WHERE $v/title = c1 RETURN $v/title")
        in
        check_int "two partition blocks" 2 (List.length q.Logical.blocks));
    case "predicate on a missing partition field kills the block" (fun () ->
        let s2 = Annotate.schema Pathstat.empty Imdb.Schema.section2 in
        let loc =
          match
            List.find_opt
              (fun (_, t) -> match t with Xtype.Choice _ -> true | _ -> false)
              (Xtype.locations (Xschema.find s2 "Show"))
          with
          | Some (l, _) -> l
          | None -> Alcotest.fail "no choice"
        in
        let m = mapping_of (Rewrite.distribute_union s2 ~tname:"Show" ~loc) in
        let q =
          Xq_translate.translate m
            (Xq_parse.parse ~name:"movies"
               "FOR $v in imdb/show WHERE $v/box_office = 5 RETURN $v/title")
        in
        (* only the movie partition can satisfy the predicate *)
        check_int "one block" 1 (List.length q.Logical.blocks));
    case "missing return path is omitted, block survives" (fun () ->
        let m = Lazy.force m_inlined in
        let q =
          Xq_translate.translate m
            (Xq_parse.parse ~name:"mixed"
               "FOR $v in imdb/show RETURN $v/title, $v/nonexistent")
        in
        match q.Logical.blocks with
        | [ b ] -> check_int "only title" 1 (List.length b.Logical.out)
        | _ -> Alcotest.fail "expected one block");
    case "unknown binding raises Untranslatable" (fun () ->
        let m = Lazy.force m_inlined in
        match
          Xq_translate.translate m
            (Xq_parse.parse ~name:"bad" "FOR $v in imdb/nothing RETURN $v")
        with
        | _ -> Alcotest.fail "expected Untranslatable"
        | exception Xq_translate.Untranslatable _ -> ());
    case "equality_columns collects filtered columns" (fun () ->
        let m = Lazy.force m_inlined in
        let q1 = Xq_translate.translate m (Imdb.Queries.q 1) in
        let q8 = Xq_translate.translate m (Imdb.Queries.q 8) in
        let cols = Xq_translate.equality_columns [ q1; q8 ] in
        check_bool "show title" true (List.mem ("Show", "title") cols);
        check_bool "actor name" true (List.mem ("Actor", "name") cols));
    case "whole workload translates on three configurations" (fun () ->
        List.iter
          (fun m ->
            List.iter
              (fun q ->
                let lq = Xq_translate.translate m q in
                check_bool (q.Xq_ast.name ^ " nonempty") true
                  (lq.Logical.blocks <> []);
                List.iter
                  (fun b ->
                    match Logical.block_wellformed m.Mapping.catalog b with
                    | Ok () -> ()
                    | Error es ->
                        Alcotest.failf "%s: %s" q.Xq_ast.name
                          (String.concat "; " es))
                  lq.Logical.blocks)
              Imdb.Queries.all)
          [
            Lazy.force m_inlined;
            Lazy.force m_outlined;
            mapping_of (Init.normalize (Lazy.force annotated_imdb));
          ]);
    case "generated SQL mentions every block" (fun () ->
        let m = Lazy.force m_inlined in
        let q = Xq_translate.translate m (Imdb.Queries.q 16) in
        let stmts = Logical.query_to_sql q in
        check_int "stmt per block" (List.length q.Logical.blocks) (List.length stmts));
    case "touched tables: lookups name their access path" (fun () ->
        let m = Lazy.force m_inlined in
        let touched n =
          let tr = Xq_translate.derive m (Imdb.Queries.q n) in
          List.sort_uniq compare tr.Xq_translate.tables
        in
        Alcotest.(check (list string)) "Q1" [ "IMDB"; "Show" ] (touched 1);
        Alcotest.(check (list string)) "Q8" [ "Actor"; "IMDB" ] (touched 8);
        Alcotest.(check (list string)) "Q13"
          [ "Actor"; "Aka"; "Directed"; "Director"; "IMDB"; "Played"; "Show" ]
          (touched 13);
        Alcotest.(check (list string)) "Q16"
          [ "Aka"; "Episodes"; "IMDB"; "Reviews"; "Show" ]
          (touched 16));
    case "touched tables: updates name the written subtree" (fun () ->
        let m = Lazy.force m_inlined in
        let ins = Xq_parse.parse_update ~name:"ins" "INSERT imdb/actor" in
        let tr = Xq_translate.derive_update m ins in
        Alcotest.(check (list string)) "INSERT imdb/actor"
          [ "Actor"; "Award"; "Played" ]
          (List.sort_uniq compare tr.Xq_translate.tables));
    case "touched tables agree with the blocks' relations" (fun () ->
        List.iter
          (fun m ->
            List.iter
              (fun q ->
                match Xq_translate.derive m q with
                | { Xq_translate.translated = lq; tables = tabs; _ } ->
                    List.iter
                      (fun b ->
                        List.iter
                          (fun t -> check_bool t true (List.mem t tabs))
                          (tables_of b))
                      lq.Logical.blocks
                | exception Xq_translate.Untranslatable _ -> ())
              Imdb.Queries.all)
          [ Lazy.force m_inlined; Lazy.force m_outlined ]);
    (* error paths: each Untranslatable carries a message naming the
       problem, so the search's failure records (and the CLI's one-line
       errors) say something actionable *)
    case "unbound variable is untranslatable with the variable named"
      (fun () ->
        let q =
          {
            Xq_ast.name = "bad";
            body =
              {
                Xq_ast.bindings = [ ("v", Xq_ast.Doc [ "imdb"; "show" ]) ];
                where = [];
                return = [ Xq_ast.R_path ("w", [ "title" ]) ];
              };
          }
        in
        match Xq_translate.translate (Lazy.force m_inlined) q with
        | _ -> Alcotest.fail "expected Untranslatable"
        | exception Xq_translate.Untranslatable msg ->
            check_bool "names the variable" true
              (contains msg "unbound variable $w"));
    case "empty document path is untranslatable" (fun () ->
        let q =
          {
            Xq_ast.name = "bad";
            body =
              {
                Xq_ast.bindings = [ ("v", Xq_ast.Doc []) ];
                where = [];
                return = [ Xq_ast.R_var "v" ];
              };
          }
        in
        match Xq_translate.translate (Lazy.force m_inlined) q with
        | _ -> Alcotest.fail "expected Untranslatable"
        | exception Xq_translate.Untranslatable msg ->
            check_bool "says the path is empty" true
              (contains msg "empty document path"));
    case "insert into a scalar has no storage target" (fun () ->
        let u =
          Xq_parse.parse_update ~name:"bad-ins" "INSERT imdb/show/title"
        in
        match Xq_translate.translate_update (Lazy.force m_inlined) u with
        | _ -> Alcotest.fail "expected Untranslatable"
        | exception Xq_translate.Untranslatable msg ->
            check_bool "says there is no element target" true
              (contains msg "no element storage target"));
  ]
