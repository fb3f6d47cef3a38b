(* The update-workload extension (paper §7 future work). *)

open Legodb
open Test_util

let m_inlined = lazy (mapping_of (Init.all_inlined (Lazy.force annotated_imdb)))
let m_outlined = lazy (mapping_of (Init.all_outlined (Lazy.force annotated_imdb)))

let parse_u = Xq_parse.parse_update

let ins_show = lazy (parse_u ~name:"ins" "INSERT imdb/show")

let del_show =
  lazy
    (parse_u ~name:"del"
       {| FOR $v IN document("x")/imdb/show WHERE $v/title = c1 DELETE $v |})

let set_title =
  lazy
    (parse_u ~name:"set"
       {| FOR $v IN document("x")/imdb/show WHERE $v/year = 1999 SET $v/title = c9 |})

let cost m u =
  Optimizer.write_cost m.Mapping.catalog (Xq_translate.translate_update m u)

let suite =
  [
    case "parser: insert" (fun () ->
        match Lazy.force ins_show with
        | Xq_ast.U_insert { target = [ "imdb"; "show" ]; _ } -> ()
        | _ -> Alcotest.fail "bad insert");
    case "parser: delete" (fun () ->
        match Lazy.force del_show with
        | Xq_ast.U_delete { target = "v"; body; _ } ->
            check_int "one pred" 1 (List.length body.Xq_ast.where)
        | _ -> Alcotest.fail "bad delete");
    case "parser: set" (fun () ->
        match Lazy.force set_title with
        | Xq_ast.U_set
            { target = ("v", [ "title" ]); value = Xq_ast.C_string "c9"; _ } ->
            ()
        | _ -> Alcotest.fail "bad set");
    case "parser: rejects garbage" (fun () ->
        List.iter
          (fun s ->
            match parse_u s with
            | _ -> Alcotest.failf "expected error for %S" s
            | exception Xq_parse.Parse_error _ -> ())
          [ "INSERT"; "FOR $v IN imdb/show RETURN $v extra DELETE"; "DELETE $v" ]);
    case "check_update catches unbound variables" (fun () ->
        let u =
          parse_u "FOR $v IN document(\"x\")/imdb/show DELETE $w"
        in
        check_bool "error" true (Result.is_error (Xq_ast.check_update u)));
    case "insert cascades over the subtree tables" (fun () ->
        let m = Lazy.force m_inlined in
        let u = Xq_translate.translate_update m (Lazy.force ins_show) in
        let tables = List.map (fun (w : Logical.write) -> w.Logical.w_table) u.Logical.writes in
        List.iter
          (fun t -> check_bool t true (List.mem t tables))
          [ "Show"; "Aka"; "Reviews"; "Episodes" ];
        (* per-show averages from the appendix statistics *)
        let per t =
          (List.find
             (fun (w : Logical.write) -> w.Logical.w_table = t)
             u.Logical.writes)
            .Logical.w_per_row
        in
        check_bool "one show row" true (abs_float (per "Show" -. 1.) < 1e-9);
        check_bool "akas per show" true
          (abs_float (per "Aka" -. (13641. /. 34798.)) < 1e-6));
    case "delete locates rows and cascades" (fun () ->
        let m = Lazy.force m_inlined in
        let u = Xq_translate.translate_update m (Lazy.force del_show) in
        List.iter
          (fun (w : Logical.write) ->
            check_bool "has locate" true (w.Logical.w_locate <> None);
            check_bool "is delete" true (w.Logical.w_kind = Logical.W_delete))
          u.Logical.writes);
    case "set touches exactly the column's table" (fun () ->
        let m = Lazy.force m_inlined in
        let u = Xq_translate.translate_update m (Lazy.force set_title) in
        match u.Logical.writes with
        | [ w ] ->
            check_string "table" "Show" w.Logical.w_table;
            check_bool "kind" true (w.Logical.w_kind = Logical.W_update)
        | ws -> Alcotest.failf "expected one write, got %d" (List.length ws));
    case "write costs are positive and finite" (fun () ->
        let m = Lazy.force m_inlined in
        List.iter
          (fun u ->
            let c = cost m (Lazy.force u) in
            check_bool "positive" true (c > 0. && Float.is_finite c))
          [ ins_show; del_show; set_title ]);
    case "inserting is cheaper into fewer tables" (fun () ->
        (* the all-outlined configuration spreads one show over many
           tables: inserting costs strictly more *)
        let ci = cost (Lazy.force m_inlined) (Lazy.force ins_show) in
        let co = cost (Lazy.force m_outlined) (Lazy.force ins_show) in
        check_bool "outlined dearer" true (co > ci));
    case "update weight pulls the design toward fewer tables" (fun () ->
        let schema = Lazy.force annotated_imdb in
        let workload = Workload.of_queries [ Imdb.Queries.q 12 ] in
        let pure = Search.greedy_si ~workload schema in
        let heavy =
          Search.greedy_si
            ~engine:
              (Cost_engine.create
                 ~updates:[ (Lazy.force ins_show, 50.) ]
                 ~workload ())
            ~workload schema
        in
        let tables r =
          (List.nth r.Search.trace (List.length r.Search.trace - 1)).Search.tables
        in
        check_bool "fewer or equal tables under updates" true
          (tables heavy <= tables pure));
    case "mixed cost adds the update component" (fun () ->
        let schema = Init.all_inlined (Lazy.force annotated_imdb) in
        let workload = Workload.of_queries [ Imdb.Queries.q 1 ] in
        let plain = Search.pschema_cost ~workload schema in
        let mixed =
          Search.pschema_cost ~workload
            ~updates:[ (Lazy.force ins_show, 1.) ]
            schema
        in
        check_bool "strictly more" true (mixed > plain));
    case "untranslatable update raises" (fun () ->
        let m = Lazy.force m_inlined in
        let u = parse_u "INSERT imdb/nothing" in
        match Xq_translate.translate_update m u with
        | _ -> Alcotest.fail "expected Untranslatable"
        | exception Xq_translate.Untranslatable _ -> ());
  ]
