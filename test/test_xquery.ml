open Legodb
open Test_util

let parse = Xq_parse.parse ~name:"t"

let suite =
  [
    case "simple FLWR" (fun () ->
        let q =
          parse
            {| FOR $v IN document("imdbdata")/imdb/show
               WHERE $v/title = c1
               RETURN $v/title, $v/year |}
        in
        check_int "bindings" 1 (List.length q.Xq_ast.body.bindings);
        check_int "preds" 1 (List.length q.Xq_ast.body.where);
        check_int "returns" 2 (List.length q.Xq_ast.body.return);
        match q.Xq_ast.body.bindings with
        | [ ("v", Xq_ast.Doc [ "imdb"; "show" ]) ] -> ()
        | _ -> Alcotest.fail "unexpected binding");
    case "bare document path" (fun () ->
        let q = parse "FOR $v in imdb/show RETURN $v" in
        match q.Xq_ast.body.bindings with
        | [ ("v", Xq_ast.Doc [ "imdb"; "show" ]) ] -> ()
        | _ -> Alcotest.fail "unexpected binding");
    case "variable-anchored binding" (fun () ->
        let q = parse "FOR $v in imdb/show $e IN $v/episodes RETURN $e" in
        match q.Xq_ast.body.bindings with
        | [ _; ("e", Xq_ast.Var_path ("v", [ "episodes" ])) ] -> ()
        | _ -> Alcotest.fail "unexpected bindings");
    case "reversed binding form" (fun () ->
        let q = parse "FOR $v in imdb/show RETURN $v/title FOR $v/episodes $e RETURN $e/name" in
        match q.Xq_ast.body.return with
        | [ Xq_ast.R_path _; Xq_ast.R_nested f ] -> (
            match f.Xq_ast.bindings with
            | [ ("e", Xq_ast.Var_path ("v", [ "episodes" ])) ] -> ()
            | _ -> Alcotest.fail "bad nested binding")
        | _ -> Alcotest.fail "bad returns");
    case "integer and symbolic constants" (fun () ->
        let q = parse "FOR $v in imdb/show WHERE $v/year = 1999 AND $v/title = c2 RETURN $v" in
        match q.Xq_ast.body.where with
        | [ { right = Xq_ast.O_const (Xq_ast.C_int 1999); _ };
            { right = Xq_ast.O_const (Xq_ast.C_string "c2"); _ } ] -> ()
        | _ -> Alcotest.fail "bad constants");
    case "numbers with grouping commas" (fun () ->
        let q = parse "FOR $v in imdb/show WHERE $v/box_office = 1,234,567 RETURN $v" in
        match q.Xq_ast.body.where with
        | [ { right = Xq_ast.O_const (Xq_ast.C_int 1234567); _ } ] -> ()
        | _ -> Alcotest.fail "comma number not parsed");
    case "path-to-path predicate" (fun () ->
        let q =
          parse
            {| FOR $i in imdb $a in $i/actor, $d in $i/director
               WHERE $a/name = $d/name RETURN $a/name |}
        in
        check_int "three bindings" 3 (List.length q.Xq_ast.body.bindings);
        match q.Xq_ast.body.where with
        | [ { left = ("a", [ "name" ]); right = Xq_ast.O_path ("d", [ "name" ]) } ] -> ()
        | _ -> Alcotest.fail "bad predicate");
    case "element constructor in return" (fun () ->
        let q = parse "FOR $v in imdb/actor RETURN <result> $v/name $v/biography </result>" in
        match q.Xq_ast.body.return with
        | [ Xq_ast.R_elem ("result", [ _; _ ]) ] -> ()
        | _ -> Alcotest.fail "bad constructor");
    case "nested FLWR with lowercase keywords" (fun () ->
        let q =
          parse
            {| for $v in imdb/actor
               return <result> $v/name
                 for $v/played $p where $p/character = c1
                 return $p/order_of_appearance
               </result> |}
        in
        match q.Xq_ast.body.return with
        | [ Xq_ast.R_elem (_, [ _; Xq_ast.R_nested f ]) ] ->
            check_int "nested pred" 1 (List.length f.Xq_ast.where)
        | _ -> Alcotest.fail "bad nesting");
    case "comments ignored" (fun () ->
        let q = parse "(: hi :) FOR $v in imdb/show (: there :) RETURN $v" in
        check_int "binding" 1 (List.length q.Xq_ast.body.bindings));
    case "all appendix queries parse and check" (fun () ->
        List.iteri
          (fun i q ->
            match Xq_ast.check q with
            | Ok () -> ()
            | Error es ->
                Alcotest.failf "Q%d: %s" (i + 1) (String.concat "; " es))
          Imdb.Queries.all;
        check_int "twenty" 20 (List.length Imdb.Queries.all));
    case "figure 5 queries parse" (fun () ->
        for i = 1 to 4 do
          match Xq_ast.check (Imdb.Queries.fig5 i) with
          | Ok () -> ()
          | Error es -> Alcotest.failf "fig5 %d: %s" i (String.concat "; " es)
        done);
    case "check rejects unbound variables" (fun () ->
        let q = parse "FOR $v in imdb/show RETURN $w/title" in
        check_bool "error" true (Result.is_error (Xq_ast.check q)));
    case "check rejects duplicate bindings" (fun () ->
        let q = parse "FOR $v in imdb/show $v in imdb/actor RETURN $v" in
        check_bool "error" true (Result.is_error (Xq_ast.check q)));
    case "parse errors carry positions" (fun () ->
        (match parse "FOR v IN x RETURN $v" with
        | _ -> Alcotest.fail "expected error"
        | exception Xq_parse.Parse_error { position; _ } ->
            check_bool "position sane" true (position >= 0)));
    case "trailing tokens rejected" (fun () ->
        match parse "FOR $v in imdb/show RETURN $v extra garbage (" with
        | _ -> Alcotest.fail "expected error"
        | exception Xq_parse.Parse_error _ -> ());
    case "workload normalization" (fun () ->
        let w = Workload.of_queries Imdb.Queries.lookup_queries in
        check_bool "sums to one" true (abs_float (Workload.total_weight w -. 1.) < 1e-9));
    case "workload mix" (fun () ->
        let w = Workload.mix 0.25 Imdb.Workloads.lookup Imdb.Workloads.publish in
        check_bool "sums to one" true (abs_float (Workload.total_weight w -. 1.) < 1e-9);
        check_int "all queries" 8 (List.length (Workload.queries w)));
    case "reference evaluator: books lookups" (fun () ->
        let q =
          parse {| FOR $b IN document("x")/store/book WHERE $b/isbn = 222 RETURN $b/title |}
        in
        check_int "one book" 1 (Xq_eval.count_bindings books_doc q);
        match Xq_eval.eval_strings books_doc q with
        | [ [ "Database Systems" ] ] -> ()
        | _ -> Alcotest.fail "bad eval");
    case "reference evaluator: joins" (fun () ->
        let q =
          parse
            {| FOR $b IN document("x")/store/book $a IN $b/author
               RETURN $a/name |}
        in
        check_int "four author bindings" 4 (Xq_eval.count_bindings books_doc q));
    case "pp/parse round trip: every IMDB query" (fun () ->
        (* [legodb query --connect] replays workloads as pp-printed
           text, so every query the workloads can name must survive
           print-then-reparse with its body intact — Q9/Q11/Q13's
           parenthesized nested FLWRs once did not *)
        List.iter
          (fun (q : Xq_ast.t) ->
            let text = Format.asprintf "%a" Xq_ast.pp q in
            match Xq_parse.parse ~name:q.Xq_ast.name text with
            | q' ->
                check_bool
                  (Printf.sprintf "%s body intact" q.Xq_ast.name)
                  true
                  (q'.Xq_ast.body = q.Xq_ast.body)
            | exception Xq_parse.Parse_error { position; message } ->
                Alcotest.failf "%s does not reparse (offset %d: %s)"
                  q.Xq_ast.name position message)
          Imdb.Queries.all);
    case "reference evaluator: existential predicate" (fun () ->
        let q =
          parse
            {| FOR $b IN document("x")/store/book
               WHERE $b/author/name = Ullman
               RETURN $b/title |}
        in
        check_int "one match" 1 (Xq_eval.count_bindings books_doc q));
    case "lift numbers outer slots first, then nested in return order"
      (fun () ->
        let q =
          parse
            {| FOR $v IN imdb/show WHERE $v/title = "a" AND $v/year = 1990
               RETURN <r> $v/title
                 FOR $v/episodes $e WHERE $e/guest_director = "b"
                 RETURN $e/name </r>,
               FOR $v/reviews $w WHERE $w/nyt = 7 RETURN $w/nyt |}
        in
        let body, consts = Xq_ast.lift q.Xq_ast.body in
        check_bool "constants in slot order" true
          (consts
          = [| Xq_ast.C_string "a"; C_int 1990; C_string "b"; C_int 7 |]);
        let slots (f : Xq_ast.flwr) =
          List.map (fun (p : Xq_ast.pred) -> p.right) f.where
        in
        (match body.return with
        | [
            Xq_ast.R_elem (_, [ _; Xq_ast.R_nested inner ]);
            Xq_ast.R_nested last;
          ] ->
            check_bool "outer" true
              (slots body = [ Xq_ast.O_param 0; O_param 1 ]);
            check_bool "nested, in return order" true
              (slots inner = [ Xq_ast.O_param 2 ] && slots last = [ O_param 3 ])
        | _ -> Alcotest.fail "bad template shape");
        (* the constant's kind lives in the vector, not the template *)
        let string_year =
          parse
            {| FOR $v IN imdb/show WHERE $v/title = "a" AND $v/year = "1990"
               RETURN <r> $v/title
                 FOR $v/episodes $e WHERE $e/guest_director = "b"
                 RETURN $e/name </r>,
               FOR $v/reviews $w WHERE $w/nyt = 7 RETURN $w/nyt |}
        in
        check_bool "same template" true
          (fst (Xq_ast.lift string_year.Xq_ast.body) = body);
        (* templates are not statements: the tree evaluator refuses one *)
        match
          Xq_eval.count_bindings (Lazy.force small_imdb_doc)
            { q with Xq_ast.body }
        with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
  ]
