(* Property-based tests (qcheck, registered as alcotest cases). *)

open Legodb

let tags = [ "a"; "b"; "c" ]

(* ---------- generators ---------- *)

let gen_text =
  QCheck2.Gen.(
    map
      (fun l -> String.concat "" l)
      (list_size (int_range 1 6)
         (oneofl [ "x"; "y"; "<"; "&"; "\""; "'"; " z"; "0" ])))

let gen_xml =
  QCheck2.Gen.(
    sized_size (int_range 0 3) @@ fix (fun self n ->
        let leaf = map2 (fun t s -> Xml.leaf t s) (oneofl tags) gen_text in
        if n = 0 then leaf
        else
          frequency
            [
              (1, leaf);
              ( 2,
                map3
                  (fun t attrs kids -> Xml.elem ~attrs t kids)
                  (oneofl tags)
                  (list_size (int_range 0 2)
                     (map2 (fun n v -> (n, v)) (oneofl [ "p"; "q" ]) gen_text))
                  (list_size (int_range 0 3) (self (n - 1))) );
            ]))

(* random regular-expression types over leaf elements a/b/c *)
let gen_rtype =
  QCheck2.Gen.(
    sized_size (int_range 0 4) @@ fix (fun self n ->
        let leaf =
          map (fun t -> Xtype.named_elem t Xtype.string_) (oneofl tags)
        in
        if n = 0 then leaf
        else
          frequency
            [
              (2, leaf);
              (1, return Xtype.Empty);
              ( 2,
                map
                  (fun ts -> Xtype.seq ts)
                  (list_size (int_range 2 3) (self (n / 2))) );
              ( 2,
                map
                  (fun ts -> Xtype.choice ts)
                  (list_size (int_range 2 3) (self (n / 2))) );
              ( 2,
                map2
                  (fun t (lo, hi) ->
                    Xtype.rep t
                      {
                        Xtype.lo;
                        hi = (match hi with Some h -> Xtype.Bounded (max h lo) | None -> Xtype.Unbounded);
                      })
                  (self (n / 2))
                  (pair (int_range 0 2) (option (int_range 0 3))) );
            ]))

let gen_tag_seq = QCheck2.Gen.(list_size (int_range 0 6) (oneofl tags))

(* naive regex matching over tag sequences, by suffix enumeration *)
let naive_matches t seq =
  let module SS = Set.Make (struct
    type t = string list

    let compare = compare
  end) in
  let rec suffixes t seq : SS.t =
    match t with
    | Xtype.Empty | Xtype.Scalar _ | Xtype.Attr _ | Xtype.Ref _ ->
        SS.singleton seq
    | Xtype.Elem e -> (
        match seq with
        | x :: rest when Label.matches e.Xtype.label x -> SS.singleton rest
        | _ -> SS.empty)
    | Xtype.Seq ts ->
        List.fold_left
          (fun acc u ->
            SS.fold (fun s acc -> SS.union (suffixes u s) acc) acc SS.empty)
          (SS.singleton seq) ts
    | Xtype.Choice ts ->
        List.fold_left (fun acc u -> SS.union (suffixes u seq) acc) SS.empty ts
    | Xtype.Rep (u, o) ->
        let lo = o.Xtype.lo in
        let hi =
          match o.Xtype.hi with
          | Xtype.Bounded h -> h
          | Xtype.Unbounded -> List.length seq + lo + 1
        in
        let rec iterate k acc frontier =
          if k > hi || SS.is_empty frontier then acc
          else
            let next =
              SS.fold (fun s acc -> SS.union (suffixes u s) acc) frontier SS.empty
            in
            let acc = if k >= lo then SS.union acc next else acc in
            iterate (k + 1) acc next
        in
        let start = SS.singleton seq in
        let acc = if lo = 0 then start else SS.empty in
        iterate 1 acc start
  in
  SS.mem [] (suffixes t seq)

let dummy_schema = Xschema.make ~root:"X" [ { Xschema.name = "X"; body = Xtype.Empty } ]

let prop name ?(count = 100) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let suite =
  [
    prop "xml print/parse round trip" gen_xml (fun doc ->
        Xml.equal doc (Xml_parse.parse_string (Xml.to_string doc)));
    prop "derivative matcher agrees with naive regex semantics"
      ~count:300
      QCheck2.Gen.(pair gen_rtype gen_tag_seq)
      (fun (t, seq) ->
        let nodes = List.map (fun tag -> Xml.leaf tag "v") seq in
        Validate.matches dummy_schema t nodes = naive_matches t seq);
    prop "docs generated from a type match it" ~count:100 gen_rtype (fun t ->
        (* wrap in a root element and generate a document for it *)
        let schema =
          Xschema.make ~root:"R"
            [ { Xschema.name = "R"; body = Xtype.named_elem "root" t } ]
        in
        let doc = Test_util.doc_of_schema schema in
        Result.is_ok (Validate.document schema doc));
    prop "replace of own subterm is identity" gen_rtype (fun t ->
        List.for_all
          (fun (loc, sub) -> Xtype.equal (Xtype.replace t loc sub) t)
          (Xtype.locations t));
    prop "normalize preserves random-type languages" ~count:60
      QCheck2.Gen.(pair gen_rtype (int_range 0 1000))
      (fun (t, seed) ->
        let schema =
          Xschema.make ~root:"R"
            [ { Xschema.name = "R"; body = Xtype.named_elem "root" t } ]
        in
        let ps0 = Init.normalize schema in
        let rng = Random.State.make [| seed |] in
        let doc = Test_util.doc_of_schema ~rng schema in
        Result.is_ok (Validate.document ps0 doc)
        &&
        let rng = Random.State.make [| seed + 1 |] in
        let doc' = Test_util.doc_of_schema ~rng ps0 in
        Result.is_ok (Validate.document schema doc'))
    ;
    prop "every neighbor step preserves the language" ~count:25
      QCheck2.Gen.(int_range 0 10_000)
      (fun seed ->
        let schema = Init.normalize Test_util.books_schema in
        let nbrs =
          Space.neighbors
            ~kinds:[ Space.K_inline; Space.K_outline; Space.K_rep_split; Space.K_rep_merge ]
            schema
        in
        nbrs = []
        ||
        let _, schema' = List.nth nbrs (seed mod List.length nbrs) in
        let rng = Random.State.make [| seed |] in
        let doc = Test_util.doc_of_schema ~rng schema in
        Result.is_ok (Validate.document schema' doc));
    prop "shred/publish round trip on random imdb documents" ~count:8
      QCheck2.Gen.(int_range 0 1000)
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        let doc = Test_util.doc_of_schema ~rng Imdb.Schema.schema in
        let annotated =
          Annotate.schema (Collector.collect doc) Imdb.Schema.schema
        in
        let m = Test_util.mapping_of (Init.all_inlined annotated) in
        let db = Shred.shred m doc in
        Xml.equal doc (Publish.document db m));
    prop "pathstat merge is commutative on counts" ~count:100
      QCheck2.Gen.(
        pair
          (list_size (int_range 0 5) (pair (oneofl tags) (int_range 0 100)))
          (list_size (int_range 0 5) (pair (oneofl tags) (int_range 0 100))))
      (fun (l1, l2) ->
        let mk l =
          Pathstat.of_list
            (List.map (fun (t, n) -> ([ t ], Pathstat.STcnt n)) l)
        in
        let a = mk l1 and b = mk l2 in
        let m1 = Pathstat.merge a b and m2 = Pathstat.merge b a in
        List.for_all
          (fun tag -> Pathstat.count m1 [ tag ] = Pathstat.count m2 [ tag ])
          tags);
    prop "workload mix preserves total weight" ~count:50
      QCheck2.Gen.(float_range 0. 1.)
      (fun k ->
        let w = Workload.mix k Imdb.Workloads.lookup Imdb.Workloads.publish in
        abs_float (Workload.total_weight w -. 1.) < 1e-9);
  ]

(* a generator over the full type syntax, for printer/parser round trips *)
let gen_full_type =
  QCheck2.Gen.(
    sized_size (int_range 0 4) @@ fix (fun self n ->
        let scalar =
          oneofl
            [
              Xtype.string_;
              Xtype.integer;
              Xtype.Scalar
                ( Xtype.String_t,
                  Some { Xtype.width = 50; s_min = None; s_max = None; distinct = Some 7 } );
              Xtype.Scalar
                ( Xtype.Integer_t,
                  Some { Xtype.width = 4; s_min = Some 1; s_max = Some 99; distinct = None } );
            ]
        in
        let leaf =
          frequency
            [
              (2, map2 (fun t s -> Xtype.named_elem t s) (oneofl tags) scalar);
              (1, return (Xtype.ref_ "SomeType"));
              (1, map (fun s -> Xtype.attr "attr" s) scalar);
              (1, map (fun s -> Xtype.elem Label.Any s) scalar);
              (1, map (fun s -> Xtype.elem (Label.Any_except [ "x"; "y" ]) s) scalar);
            ]
        in
        if n = 0 then leaf
        else
          frequency
            [
              (3, leaf);
              (2, map Xtype.seq (list_size (int_range 2 3) (self (n / 2))));
              (2, map Xtype.choice (list_size (int_range 2 3) (self (n / 2))));
              ( 2,
                map2
                  (fun t k ->
                    Xtype.rep t
                      (List.nth
                         [ Xtype.opt; Xtype.star; Xtype.plus; Xtype.occ 2 (Xtype.Bounded 5) ]
                         k))
                  (self (n / 2)) (int_range 0 3) );
              ( 1,
                map2
                  (fun tag inner -> Xtype.named_elem tag inner)
                  (oneofl tags) (self (n / 2)) );
            ]))

let extra =
  [
    prop "type notation printer/parser round trip" ~count:300 gen_full_type
      (fun t ->
        let printed = Xtype.to_string t in
        match Xtype_parse.type_of_string printed with
        | t' -> Xtype.equal t t'
        | exception Xtype_parse.Parse_error _ ->
            QCheck2.Test.fail_reportf "did not parse: %s" printed);
    prop "annotated printer/parser round trip keeps scalar stats" ~count:150
      gen_full_type (fun t ->
        let printed = Format.asprintf "%a" Xtype.pp_with_stats t in
        match Xtype_parse.type_of_string printed with
        | t' ->
            (* bodies equal, and scalar statistics survive verbatim *)
            Xtype.equal t t'
            &&
            let scalars u =
              let rec go u acc =
                match u with
                | Xtype.Scalar (k, st) -> (k, st) :: acc
                | Xtype.Attr (_, v) | Xtype.Elem { content = v; _ }
                | Xtype.Rep (v, _) ->
                    go v acc
                | Xtype.Seq vs | Xtype.Choice vs ->
                    List.fold_left (fun acc v -> go v acc) acc vs
                | Xtype.Empty | Xtype.Ref _ -> acc
              in
              go u []
            in
            scalars t = scalars t'
        | exception Xtype_parse.Parse_error _ ->
            QCheck2.Test.fail_reportf "did not parse: %s" printed);
    prop "navigation never raises on random steps" ~count:100
      QCheck2.Gen.(pair (oneofl [ "title"; "aka"; "nope"; "reviews"; "tilde"; "type" ])
                     (oneofl [ "Show"; "Actor"; "IMDB"; "Missing" ]))
      (fun (step, ty) ->
        let m = Test_util.mapping_of (Init.all_inlined Imdb.Schema.schema) in
        match Navigate.navigate m { Navigate.ty; prefix = [] } step with
        | _ -> true);
    prop "xml parser never crashes on mutated documents" ~count:200
      QCheck2.Gen.(
        pair
          (pair (int_range 0 500) (int_range 0 255))
          (pair (int_range 0 500)
             (oneofl
                [ ""; "&#65;"; "&#x42;"; "&#xD800;"; "&#xDFFF;"; "&#-5;";
                  "&#x110000;"; "&#99999999999999999999;"; "&#0x41;";
                  "&#1_0;"; "&#x;"; "&#;" ])))
      (fun ((pos, byte), (at, reference)) ->
        let doc = Xml.to_string Test_util.books_doc in
        let doc =
          (* a character reference, well-formed or not, spliced in *)
          let at = min at (String.length doc) in
          String.sub doc 0 at ^ reference
          ^ String.sub doc at (String.length doc - at)
        in
        let mutated =
          if pos < String.length doc then
            String.mapi (fun i c -> if i = pos then Char.chr byte else c) doc
          else doc
        in
        match Xml_parse.parse_string mutated with
        | _ -> true
        | exception Xml_parse.Parse_error _ -> true);
  ]
