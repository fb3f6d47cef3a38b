open Legodb
open Test_util

(* statistics for the Section 2 schema, small and round for easy checks *)
let s2_stats =
  Pathstat.of_list
    [
      ([ "imdb" ], Pathstat.STcnt 1);
      ([ "imdb"; "show" ], Pathstat.STcnt 1000);
      ([ "imdb"; "show"; "type" ], Pathstat.STsize 8);
      ([ "imdb"; "show"; "type" ], Pathstat.STdistinct 2);
      ([ "imdb"; "show"; "title" ], Pathstat.STsize 50);
      ([ "imdb"; "show"; "title" ], Pathstat.STdistinct 1000);
      ([ "imdb"; "show"; "year" ], Pathstat.STbase (1900, 2000, 100));
      ([ "imdb"; "show"; "aka" ], Pathstat.STcnt 2000);
      ([ "imdb"; "show"; "aka" ], Pathstat.STsize 40);
      ([ "imdb"; "show"; "review" ], Pathstat.STcnt 500);
      ([ "imdb"; "show"; "review"; "TILDE" ], Pathstat.STcnt 500);
      ([ "imdb"; "show"; "review"; "TILDE" ], Pathstat.STsize 80);
      ([ "imdb"; "show"; "review"; "nyt" ], Pathstat.STcnt 125);
      ([ "imdb"; "show"; "review"; "suntimes" ], Pathstat.STcnt 375);
      ([ "imdb"; "show"; "box_office" ], Pathstat.STcnt 750);
      ([ "imdb"; "show"; "box_office" ], Pathstat.STbase (1, 1000000, 750));
      ([ "imdb"; "show"; "video_sales" ], Pathstat.STcnt 750);
      ([ "imdb"; "show"; "video_sales" ], Pathstat.STbase (1, 1000000, 750));
      ([ "imdb"; "show"; "seasons" ], Pathstat.STcnt 250);
      ([ "imdb"; "show"; "seasons" ], Pathstat.STbase (1, 20, 20));
      ([ "imdb"; "show"; "description" ], Pathstat.STcnt 250);
      ([ "imdb"; "show"; "description" ], Pathstat.STsize 120);
      ([ "imdb"; "show"; "episode" ], Pathstat.STcnt 2500);
      ([ "imdb"; "show"; "episode"; "name" ], Pathstat.STsize 40);
      ([ "imdb"; "show"; "episode"; "guest_director" ], Pathstat.STsize 40);
    ]

let s2 = lazy (Annotate.schema s2_stats Imdb.Schema.section2)

(* the location of the (Movie | TV) union in Show's body *)
let choice_loc schema =
  let body = Xschema.find schema "Show" in
  match
    List.find_opt
      (fun (_, t) -> match t with Xtype.Choice _ -> true | _ -> false)
      (Xtype.locations body)
  with
  | Some (loc, _) -> loc
  | None -> Alcotest.fail "no union found in Show"

let elem_loc schema ty tag =
  let body = Xschema.find schema ty in
  match
    List.find_opt
      (fun (_, t) ->
        match t with
        | Xtype.Elem { label = Label.Name n; _ } -> String.equal n tag
        | _ -> false)
      (Xtype.locations body)
  with
  | Some (loc, _) -> loc
  | None -> Alcotest.failf "no element %s in %s" tag ty

let ref_loc schema ty target =
  let body = Xschema.find schema ty in
  match
    List.find_opt
      (fun (_, t) -> match t with Xtype.Ref n -> String.equal n target | _ -> false)
      (Xtype.locations body)
  with
  | Some (loc, _) -> loc
  | None -> Alcotest.failf "no reference to %s in %s" target ty

(* both schemas accept the same random documents *)
let same_language ?(n = 15) s1 s2 =
  let rng = Random.State.make [| 23 |] in
  for _ = 1 to n do
    let doc = doc_of_schema ~rng s1 in
    check_bool "s1 doc valid under s2" true
      (Result.is_ok (Validate.document s2 doc))
  done;
  let rng = Random.State.make [| 29 |] in
  for _ = 1 to n do
    let doc = doc_of_schema ~rng s2 in
    check_bool "s2 doc valid under s1" true
      (Result.is_ok (Validate.document s1 doc))
  done

let card schema ty =
  match Rewrite.card_of_def schema ty with
  | Some c -> c
  | None -> Alcotest.failf "no cardinality for %s" ty

let suite =
  [
    case "outline then inline is identity" (fun () ->
        let s = Lazy.force s2 in
        let loc = elem_loc s "Show" "title" in
        let s', name = Rewrite.outline s ~tname:"Show" ~loc in
        check_string "name" "Title" name;
        check_bool "new def exists" true (Xschema.mem s' "Title");
        let s'' = Rewrite.inline s' ~tname:"Show" ~loc:(ref_loc s' "Show" "Title") in
        check_bool "round trip" true (Xschema.equal s s''));
    case "outline keeps p-schema and language" (fun () ->
        let s = Lazy.force s2 in
        let s', _ = Rewrite.outline s ~tname:"Show" ~loc:(elem_loc s "Show" "title") in
        check_bool "p-schema" true (Pschema.is_pschema s');
        same_language s s');
    case "cannot outline the body root" (fun () ->
        let s = Lazy.force s2 in
        match Rewrite.outline s ~tname:"Show" ~loc:[] with
        | _ -> Alcotest.fail "expected Not_applicable"
        | exception Rewrite.Not_applicable _ -> ());
    case "cannot inline a shared type" (fun () ->
        let s = Lazy.force s2 in
        (* make Aka shared by adding a second reference *)
        let body = Xschema.find s "Show" in
        let s =
          Xschema.update s "Show"
            (Xtype.seq [ body; Xtype.rep (Xtype.ref_ "Aka") Xtype.star ])
        in
        check_bool "not inlinable" false
          (Rewrite.can_inline s ~tname:"Show" ~loc:(ref_loc s "Show" "Aka")));
    case "cannot inline under multi-occurrence repetition" (fun () ->
        let s = Lazy.force s2 in
        (* Review appears under a star; its ref location is inside Rep *)
        let loc = ref_loc s "Show" "Review" in
        check_bool "not inlinable" false (Rewrite.can_inline s ~tname:"Show" ~loc));
    case "cannot inline a recursive type" (fun () ->
        let s =
          Xschema.make ~root:"R"
            [
              {
                Xschema.name = "R";
                body = Xtype.named_elem "r" (Xtype.optional (Xtype.ref_ "R"));
              };
            ]
        in
        let loc = ref_loc s "R" "R" in
        check_bool "not inlinable" false (Rewrite.can_inline s ~tname:"R" ~loc));
    case "inline a union branch under an optional" (fun () ->
        let s = Lazy.force s2 in
        let s = Rewrite.union_to_options s ~tname:"Show" ~loc:(choice_loc s) in
        let loc = ref_loc s "Show" "Movie" in
        check_bool "inlinable" true (Rewrite.can_inline s ~tname:"Show" ~loc);
        let s' = Rewrite.inline s ~tname:"Show" ~loc in
        check_bool "p-schema" true (Pschema.is_pschema s'));
    case "union_to_options widens the language" (fun () ->
        let s = Lazy.force s2 in
        let s' = Rewrite.union_to_options s ~tname:"Show" ~loc:(choice_loc s) in
        check_bool "p-schema" true (Pschema.is_pschema s');
        (* old documents remain valid *)
        let rng = Random.State.make [| 31 |] in
        for _ = 1 to 10 do
          let doc = doc_of_schema ~rng s in
          check_bool "still valid" true (Result.is_ok (Validate.document s' doc))
        done);
    case "distribute_union partitions Show" (fun () ->
        let s = Lazy.force s2 in
        let s' = Rewrite.distribute_union s ~tname:"Show" ~loc:(choice_loc s) in
        check_bool "p-schema" true (Pschema.is_pschema s');
        (* Show becomes a union of two type names *)
        (match Xschema.find s' "Show" with
        | Xtype.Choice [ Xtype.Ref p1; Xtype.Ref p2 ] ->
            let b1 = Xschema.find s' p1 and b2 = Xschema.find s' p2 in
            let has_ref body name = List.mem name (Xtype.refs body) in
            check_bool "part1 is a show element" true
              (match b1 with
              | Xtype.Elem { label = Label.Name "show"; _ } -> true
              | _ -> false);
            check_bool "movie branch in one part" true
              (has_ref b1 "Movie" <> has_ref b2 "Movie");
            check_bool "tv branch in the other" true
              (has_ref b1 "TV" <> has_ref b2 "TV");
            check_bool "shared aka duplicated into both" true
              (has_ref b1 "Aka" && has_ref b2 "Aka")
        | t -> Alcotest.failf "unexpected Show body: %s" (Xtype.to_string t));
        same_language s s');
    case "distribute_union splits counts by branch weight" (fun () ->
        let s = Lazy.force s2 in
        let s' = Rewrite.distribute_union s ~tname:"Show" ~loc:(choice_loc s) in
        match Xschema.find s' "Show" with
        | Xtype.Choice [ Xtype.Ref p1; Xtype.Ref p2 ] ->
            let c1 = card s' p1 and c2 = card s' p2 in
            check_bool "sums to shows" true (abs_float (c1 +. c2 -. 1000.) < 1.);
            (* movie branch weight = 750/(750+250) *)
            check_bool "3:1 split" true
              (abs_float (Float.max c1 c2 -. 750.) < 1.)
        | _ -> Alcotest.fail "not partitioned");
    case "factor_union reverses distribution" (fun () ->
        let s = Lazy.force s2 in
        let s' = Rewrite.distribute_union s ~tname:"Show" ~loc:(choice_loc s) in
        let s'' = Rewrite.factor_union s' ~tname:"Show" ~loc:[] in
        (* after factoring, Show is again a single element with a union
           inside; languages coincide with the original *)
        same_language s s'');
    case "split_repetition on aka" (fun () ->
        let s = Lazy.force s2 in
        let loc = ref_loc s "Show" "Aka" in
        (* the ref sits inside Aka{1,10}: split at the repetition *)
        let rep_loc = List.filteri (fun i _ -> i < List.length loc - 1) loc in
        let s' = Rewrite.split_repetition s ~tname:"Show" ~loc:rep_loc in
        check_bool "p-schema" true (Pschema.is_pschema s');
        check_bool "fresh copy exists" true (Xschema.mem s' "Aka_1");
        (* counts: 1000 parents get the mandatory first aka *)
        check_bool "first count" true (abs_float (card s' "Aka_1" -. 1000.) < 1.);
        check_bool "rest count" true (abs_float (card s' "Aka" -. 1000.) < 1.);
        same_language s s');
    case "merge_repetition reverses split" (fun () ->
        let s = Lazy.force s2 in
        let loc = ref_loc s "Show" "Aka" in
        let rep_loc = List.filteri (fun i _ -> i < List.length loc - 1) loc in
        let s' = Rewrite.split_repetition s ~tname:"Show" ~loc:rep_loc in
        (* the split produced [Aka_1, Aka{0,9}] inside the content Seq *)
        let seq_loc = List.filteri (fun i _ -> i < List.length rep_loc - 1) rep_loc in
        let s'' = Rewrite.merge_repetition s' ~tname:"Show" ~loc:seq_loc in
        check_bool "copy gone" false (Xschema.mem s'' "Aka_1");
        same_language s s'');
    case "materialize_wildcard splits reviews" (fun () ->
        let s = Lazy.force s2 in
        (* the wildcard element lives in the Review def *)
        let body = Xschema.find s "Review" in
        let loc =
          match
            List.find_opt
              (fun (_, t) ->
                match t with
                | Xtype.Elem { label = Label.Any; _ } -> true
                | _ -> false)
              (Xtype.locations body)
          with
          | Some (loc, _) -> loc
          | None -> Alcotest.fail "no wildcard"
        in
        let s' = Rewrite.materialize_wildcard s ~tname:"Review" ~loc ~tag:"nyt" in
        check_bool "p-schema" true (Pschema.is_pschema s');
        check_bool "nyt type" true (Xschema.mem s' "Nyt");
        check_bool "other type" true (Xschema.mem s' "Other_nyt");
        (* counts split 125 / 375 *)
        check_bool "nyt count" true (abs_float (card s' "Nyt" -. 125.) < 1.);
        check_bool "other count" true (abs_float (card s' "Other_nyt" -. 375.) < 1.);
        same_language s s');
    case "branch weights from statistics" (fun () ->
        let s = Lazy.force s2 in
        match Xschema.find s "Show" with
        | Xtype.Elem { content = Xtype.Seq items; _ } -> (
            match List.rev items with
            | Xtype.Choice branches :: _ -> (
                match Rewrite.branch_weights s branches with
                | [ w1; w2 ] ->
                    check_bool "sums to one" true (abs_float (w1 +. w2 -. 1.) < 1e-9);
                    check_bool "75/25" true (abs_float (w1 -. 0.75) < 0.01)
                | _ -> Alcotest.fail "expected two weights")
            | _ -> Alcotest.fail "no union at end of Show")
        | _ -> Alcotest.fail "unexpected Show body");
    case "space: default kinds are inline and outline" (fun () ->
        Alcotest.(check (list bool))
          "kinds"
          [ true; true ]
          (List.map
             (fun k -> List.mem k Space.all_kinds)
             Space.default_kinds));
    case "space: neighbors preserve p-schema" (fun () ->
        let s = Init.normalize (Lazy.force s2) in
        let nbrs = Space.neighbors ~kinds:Space.all_kinds s in
        check_bool "some neighbors" true (List.length nbrs > 5);
        List.iter
          (fun (step, s') ->
            if not (Pschema.is_pschema s') then
              Alcotest.failf "step broke stratification: %s"
                (Format.asprintf "%a" Space.pp_step step))
          nbrs);
    case "space: outline enables the inverse inline step" (fun () ->
        let s = Init.normalize (Lazy.force s2) in
        let steps = Space.applicable ~kinds:Space.default_kinds s in
        let kinds = List.map Space.kind_of_step steps in
        (* every reference in a fresh p-schema sits under a repetition or
           union, so only outline steps apply initially *)
        check_bool "has outline" true (List.mem Space.K_outline kinds);
        check_bool "no inline yet" false (List.mem Space.K_inline kinds);
        let s' =
          Space.apply s
            (List.find (fun st -> Space.kind_of_step st = Space.K_outline) steps)
        in
        let kinds' =
          List.map Space.kind_of_step (Space.applicable ~kinds:Space.default_kinds s')
        in
        check_bool "inline after outline" true (List.mem Space.K_inline kinds'));
    case "space: union factoring offers only p-schemas" (fun () ->
        (* the branches spell [b] and [c] as type names but share an
           inlined [a]: merging them leaves [a] under the union *)
        let s =
          Xtype_parse.schema_of_string
            {|type R = r [ S{0,*} ]
              type S = (S1 | S2)
              type S1 = s [ a [ String ], B ]
              type S2 = s [ a [ String ], C ]
              type B = b [ String ]
              type C = c [ String ]|}
        in
        check_bool "starts as a p-schema" true (Pschema.is_pschema s);
        check_bool "factoring S is refused" true
          (match
             Space.apply s (Space.Union_factor { tname = "S"; loc = [] })
           with
          | _ -> false
          | exception Rewrite.Not_applicable _ -> true);
        List.iter
          (fun (step, s') ->
            if not (Pschema.is_pschema s') then
              Alcotest.failf "not a p-schema after %s"
                (Format.asprintf "%a" Space.pp_step step))
          (Space.neighbors ~kinds:[ Space.K_union_factor ] s));
  ]
