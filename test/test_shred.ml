open Legodb
open Test_util

let books_mapping = lazy (mapping_of (Init.all_inlined books_schema))

let suite =
  [
    case "books shred row counts" (fun () ->
        let m = Lazy.force books_mapping in
        let db = Shred.shred m books_doc in
        check_int "store" 1 (Storage.row_count db "Store");
        check_int "books" 2 (Storage.row_count db "Book");
        check_int "authors" 4 (Storage.row_count db "Author"));
    case "inline scalars land in columns" (fun () ->
        let m = Lazy.force books_mapping in
        let db = Shred.shred m books_doc in
        let rows = Storage.lookup db ~table:"Book" ~column:"isbn" (Rtype.V_string "222") in
        check_int "found by attribute" 1 (List.length rows);
        let row = List.hd rows in
        let title = row.(Storage.column_position db ~table:"Book" ~column:"title") in
        check_bool "title" true (title = Rtype.V_string "Database Systems"));
    case "optional absent becomes NULL" (fun () ->
        let m = Lazy.force books_mapping in
        let db = Shred.shred m books_doc in
        let rows = Storage.lookup db ~table:"Book" ~column:"isbn" (Rtype.V_string "222") in
        let row = List.hd rows in
        check_bool "blurb null" true
          (row.(Storage.column_position db ~table:"Book" ~column:"blurb") = Rtype.V_null));
    case "foreign keys point at parents" (fun () ->
        let m = Lazy.force books_mapping in
        let db = Shred.shred m books_doc in
        let books = List.of_seq (Storage.scan db "Book") in
        let key_pos = Storage.column_position db ~table:"Book" ~column:"Book_id" in
        let b222 =
          List.find
            (fun (r : Storage.row) ->
              r.(Storage.column_position db ~table:"Book" ~column:"isbn")
              = Rtype.V_string "222")
            books
        in
        let authors =
          Storage.lookup db ~table:"Author" ~column:"parent_Book" b222.(key_pos)
        in
        check_int "three authors of b222" 3 (List.length authors));
    case "books round trip" (fun () ->
        let m = Lazy.force books_mapping in
        let db = Shred.shred m books_doc in
        check_bool "equal" true (Xml.equal books_doc (Publish.document db m)));
    case "publish a single element" (fun () ->
        let m = Lazy.force books_mapping in
        let db = Shred.shred m books_doc in
        let node = Publish.element db m ~ty:"Author" ~id:1 in
        check_string "tag" "author" (Option.get (Xml.tag node)));
    case "shred_into accumulates documents" (fun () ->
        let m = Lazy.force books_mapping in
        let db = Storage.create m.Mapping.catalog in
        Shred.shred_into db m books_doc;
        Shred.shred_into db m books_doc;
        check_int "doubled" 4 (Storage.row_count db "Book"));
    case "invalid document raises Shred_error" (fun () ->
        let m = Lazy.force books_mapping in
        let bad = Xml.elem "store" [ Xml.elem "pamphlet" [] ] in
        match Shred.shred m bad with
        | _ -> Alcotest.fail "expected Shred_error"
        | exception Shred.Shred_error _ -> ());
    case "imdb round trip across configurations" (fun () ->
        let doc = Lazy.force small_imdb_doc in
        let stats = Collector.collect doc in
        let annotated = Annotate.schema stats Imdb.Schema.schema in
        List.iter
          (fun schema ->
            let m = mapping_of schema in
            let db = Shred.shred m doc in
            check_bool "round trip" true (Xml.equal doc (Publish.document db m)))
          [
            Init.all_inlined annotated;
            Init.all_outlined annotated;
            Init.normalize annotated;
          ]);
    case "round trip with horizontal partitioning" (fun () ->
        (* distribute the Show union, then shred a generated document:
           the lookahead must route movies and tv shows to their parts *)
        let doc = Lazy.force small_imdb_doc in
        let stats = Collector.collect doc in
        let annotated = Annotate.schema stats Imdb.Schema.schema in
        let ps0 = Init.normalize annotated in
        let loc =
          match
            List.find_opt
              (fun (_, t) -> match t with Xtype.Choice _ -> true | _ -> false)
              (Xtype.locations (Xschema.find ps0 "Show"))
          with
          | Some (l, _) -> l
          | None -> Alcotest.fail "no union in ps0 Show"
        in
        let dist = Rewrite.distribute_union ps0 ~tname:"Show" ~loc in
        let m = mapping_of dist in
        let db = Shred.shred m doc in
        (* horizontal partitioning loses the interleaving of movies and
           tv shows (no order columns, as in the paper): compare the
           show subtrees as multisets *)
        let doc' = Publish.document db m in
        let shows d =
          List.sort compare
            (List.map Xml.to_string (Xml.select [ "imdb"; "show" ] d))
        in
        check_bool "same shows" true (shows doc = shows doc');
        let rest d =
          List.map Xml.to_string
            (Xml.select [ "imdb"; "director" ] d @ Xml.select [ "imdb"; "actor" ] d)
        in
        check_bool "rest preserved in order" true (rest doc = rest doc');
        (* both partitions hold rows *)
        let p1 = Storage.row_count db "Show_Part1"
        and p2 = Storage.row_count db "Show_Part2" in
        check_bool "both non-empty" true (p1 > 0 && p2 > 0);
        check_int "partition" (Storage.row_count db "Show_Part1" + p2)
          (List.length (Xml.select [ "imdb"; "show" ] doc)));
    case "shredded cardinalities match collector statistics" (fun () ->
        let doc = Lazy.force small_imdb_doc in
        let stats = Collector.collect doc in
        let annotated = Annotate.schema stats Imdb.Schema.schema in
        let m = mapping_of (Init.all_inlined annotated) in
        let db = Shred.shred m doc in
        check_int "shows" (Option.get (Pathstat.count stats [ "imdb"; "show" ]))
          (Storage.row_count db "Show");
        check_int "episodes"
          (Option.get (Pathstat.count stats [ "imdb"; "show"; "episodes" ]))
          (Storage.row_count db "Episodes"));
    case "estimated catalog close to refreshed reality" (fun () ->
        (* the statistics translation should agree with statistics
           recomputed from the actual shredded rows *)
        let doc = Lazy.force small_imdb_doc in
        let stats = Collector.collect doc in
        let annotated = Annotate.schema stats Imdb.Schema.schema in
        let m = mapping_of (Init.all_inlined annotated) in
        let db = Storage.freeze (Shred.shred m doc) in
        List.iter
          (fun (t : Rschema.table) ->
            let actual = Rschema.table (Storage.catalog db) t.Rschema.tname in
            check_bool (t.Rschema.tname ^ " card") true
              (abs_float (t.Rschema.card -. actual.Rschema.card) <= 0.5))
          m.Mapping.catalog.tables);
  ]

(* order-columns extension: exact round trips even under partitioning *)
let ordered_suite =
  [
    case "order columns appear in every table" (fun () ->
        let annotated = Lazy.force annotated_imdb in
        match Mapping.of_pschema ~order_columns:true (Init.all_inlined annotated) with
        | Error es -> Alcotest.failf "%s" (String.concat ";" es)
        | Ok m ->
            List.iter
              (fun (t : Rschema.table) ->
                check_bool t.Rschema.tname true
                  (Rschema.find_column t Naming.order_col <> None))
              m.Mapping.catalog.Rschema.tables);
    case "ordered mapping round-trips a partitioned schema exactly" (fun () ->
        let doc = Lazy.force small_imdb_doc in
        let stats = Collector.collect doc in
        let annotated = Annotate.schema stats Imdb.Schema.schema in
        let ps0 = Init.normalize annotated in
        let loc =
          match
            List.find_opt
              (fun (_, t) -> match t with Xtype.Choice _ -> true | _ -> false)
              (Xtype.locations (Xschema.find ps0 "Show"))
          with
          | Some (l, _) -> l
          | None -> Alcotest.fail "no union in ps0 Show"
        in
        let dist = Rewrite.distribute_union ps0 ~tname:"Show" ~loc in
        match Mapping.of_pschema ~order_columns:true dist with
        | Error es -> Alcotest.failf "%s" (String.concat ";" es)
        | Ok m ->
            let db = Shred.shred m doc in
            check_bool "exact round trip" true
              (Xml.equal doc (Publish.document db m)));
    case "ordered mapping keeps ordinary round trips exact too" (fun () ->
        let doc = Lazy.force small_imdb_doc in
        let stats = Collector.collect doc in
        let annotated = Annotate.schema stats Imdb.Schema.schema in
        match Mapping.of_pschema ~order_columns:true (Init.all_inlined annotated) with
        | Error es -> Alcotest.failf "%s" (String.concat ";" es)
        | Ok m ->
            let db = Shred.shred m doc in
            check_bool "exact" true (Xml.equal doc (Publish.document db m)));
    case "order columns cost a little" (fun () ->
        let annotated = Lazy.force annotated_imdb in
        let inl = Init.all_inlined annotated in
        let plain = mapping_of inl in
        match Mapping.of_pschema ~order_columns:true inl with
        | Error es -> Alcotest.failf "%s" (String.concat ";" es)
        | Ok ordered ->
            let cost m =
              let q = Xq_translate.translate m (Imdb.Queries.q 16) in
              snd (Optimizer.query_cost m.Mapping.catalog q)
            in
            let cp = cost plain and co = cost ordered in
            check_bool "ordered slightly dearer" true (co >= cp);
            check_bool "within 10 percent" true (co <= cp *. 1.10));
  ]
