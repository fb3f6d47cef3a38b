(* Pricing a candidate from its parent: a mapping, fingerprints and
   translations carried over from the configuration one rewriting
   earlier must equal those derived from scratch, along random walks of
   every rewriting kind, and so must every statement's cost bits. *)

open Legodb
open Test_util

let prop name ?(count = 60) ~print gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen f)

let query name text = (Xq_parse.parse ~name text, 1.)
let update name text = (Xq_parse.parse_update ~name text, 1.)

let imdb_updates =
  [
    update "ins" "INSERT imdb/show";
    update "del"
      {| FOR $v IN document("x")/imdb/show WHERE $v/title = c1 DELETE $v |};
    update "set"
      {| FOR $v IN document("x")/imdb/show WHERE $v/year = 1999 SET $v/title = c9 |};
  ]

(* IMDB with its mixed workload, and the load suite's other schemas
   (Section 2's IMDB, the bookstore, two structured wildcards) with
   statements of their own; a statement a configuration cannot
   translate must fail the same way on both paths *)
let schemas =
  lazy
    (let other = Annotate.schema Pathstat.empty in
     let books =
       [
         query "b1"
           {| FOR $b IN document("x")/store/book WHERE $b/price = 10 RETURN $b/title |};
         query "b2" {| FOR $b IN document("x")/store/book RETURN $b |};
         query "b3"
           {| FOR $b IN document("x")/store/book, $a IN $b/author RETURN $a/name |};
       ]
     in
     match Test_load.other_schemas with
     | [ section2; _; any; items ] ->
         [
           ( "imdb",
             Lazy.force annotated_imdb,
             Imdb.Workloads.mixed 0.5,
             imdb_updates );
           ("section2", other section2, Imdb.Workloads.mixed 0.5, imdb_updates);
           ("books", other books_schema, books, [ update "ib" "INSERT store/book" ]);
           ( "any",
             other any,
             [
               query "a1" {| FOR $v IN document("x")/a/b RETURN $v |};
               query "a2" {| FOR $v IN document("x")/a WHERE $v/b = c1 RETURN $v/c |};
             ],
             [] );
           ( "items",
             other items,
             [
               query "i1"
                 {| FOR $i IN document("x")/root/item WHERE $i/id = 3 RETURN $i/foo/name |};
               query "i2" {| FOR $i IN document("x")/root/item RETURN $i |};
             ],
             [ update "ii" "INSERT root/item" ] );
         ]
     | _ -> Alcotest.fail "the load suite's other schemas changed")

let starts =
  [|
    ("all-inlined", fun s -> Init.all_inlined s);
    ("all-outlined", Init.all_outlined);
    ("normalized", Init.normalize);
  |]

(* a configuration's derived state, as the search keeps it *)
type node = {
  schema : Xschema.t;
  mapping : Mapping.t;
  fps : Mapping.fingerprints;
  queries : (Logical.query Xq_translate.translation, string) result list;
  updates : (Logical.update Xq_translate.translation, string) result list;
}

let attempt f = match f () with v -> Ok v | exception Xq_translate.Untranslatable m -> Error m

let translations ?parent derive m stmts =
  List.mapi
    (fun i (x, _) ->
      attempt (fun () ->
          match parent with
          | Some theirs -> (
              match List.nth theirs i with
              | Ok tr -> derive ?parent:(Some tr) m x
              | Error _ -> derive ?parent:None m x)
          | None -> derive ?parent:None m x))
    stmts

let node ?parent ~workload ~updates schema mapping =
  let fps =
    Mapping.fingerprints
      ?parent:(Option.map (fun p -> p.fps) parent)
      mapping.Mapping.catalog
  in
  {
    schema;
    mapping;
    fps;
    queries =
      translations
        ?parent:(Option.map (fun p -> p.queries) parent)
        (fun ?parent m q -> Xq_translate.derive ?parent m q)
        mapping workload;
    updates =
      translations
        ?parent:(Option.map (fun p -> p.updates) parent)
        (fun ?parent m u -> Xq_translate.derive_update ?parent m u)
        mapping updates;
  }

let fail fmt = Printf.ksprintf (fun m -> QCheck2.Test.fail_report m) fmt

let same_translation what a b =
  match (a, b) with
  | Error x, Error y ->
      if x <> y then fail "%s: untranslatable for different reasons" what
  | Ok (a : _ Xq_translate.translation), Ok (b : _ Xq_translate.translation)
    ->
      if compare a.translated b.translated <> 0 then
        fail "%s: translation differs" what;
      if a.tables <> b.tables then fail "%s: read set differs" what;
      if not (Mapping.same_reads a.reads b.reads) then
        fail "%s: reads differ" what
  | _ -> fail "%s: one path fails to translate" what

let bits f = Int64.bits_of_float f

(* every statement's cost on the catalog the optimizer sees *)
let statement_costs ~workload_indexes n =
  let queries =
    List.filter_map (function Ok tr -> Some tr | Error _ -> None) n.queries
  in
  let catalog =
    if workload_indexes then
      Rschema.add_indexes n.mapping.Mapping.catalog
        (Xq_translate.equality_columns
           (List.map (fun (tr : _ Xq_translate.translation) -> tr.translated) queries))
    else n.mapping.Mapping.catalog
  in
  List.map
    (fun (tr : _ Xq_translate.translation) ->
      bits (Optimizer.query_scalar_cost catalog tr.translated))
    queries
  @ List.filter_map
      (function
        | Ok (tr : _ Xq_translate.translation) ->
            Some (bits (Optimizer.write_cost catalog tr.translated))
        | Error _ -> None)
      n.updates

(* the child derived from its parent against the child from scratch *)
let compare_nodes ~workload_indexes ~what ~workload ~updates derived schema
    ~order_columns =
  match Mapping.of_pschema ~order_columns schema with
  | Error _ -> fail "%s: the fresh mapping fails, the derived one does not" what
  | Ok m0 ->
      let m = derived.mapping in
      if compare m.Mapping.catalog m0.Mapping.catalog <> 0 then
        fail "%s: catalog differs" what;
      if m.Mapping.transparent <> m0.Mapping.transparent then
        fail "%s: transparent types differ" what;
      if m.Mapping.renamed <> m0.Mapping.renamed then
        fail "%s: renamed positions differ" what;
      if m.Mapping.ordered <> m0.Mapping.ordered then
        fail "%s: order columns differ" what;
      let fresh = node ~workload ~updates schema m0 in
      let fps = Mapping.fingerprint_list derived.fps in
      if fps <> Mapping.fingerprint_list fresh.fps then
        fail "%s: table fingerprints differ" what;
      if
        Mapping.catalog_fingerprint fps
        <> Mapping.catalog_fingerprint (Mapping.fingerprint_list fresh.fps)
      then fail "%s: catalog fingerprint differs" what;
      List.iteri
        (fun i (a, b) -> same_translation (Printf.sprintf "%s q%d" what i) a b)
        (List.combine derived.queries fresh.queries);
      List.iteri
        (fun i (a, b) -> same_translation (Printf.sprintf "%s u%d" what i) a b)
        (List.combine derived.updates fresh.updates);
      if
        statement_costs ~workload_indexes derived
        <> statement_costs ~workload_indexes fresh
      then fail "%s: statement cost bits differ" what

let gen_walk =
  QCheck2.Gen.(
    tup6 (int_range 0 4) (int_range 0 2) bool bool (int_range 0 0xFFFF)
      (int_range 1 6))

let print_walk (s, start, order_columns, workload_indexes, seed, steps) =
  Printf.sprintf "schema %d, start %s, order %b, indexes %b, seed %d, %d steps"
    s (fst starts.(start)) order_columns workload_indexes seed steps

(* Walk [steps] random rewritings of every kind, deriving each
   configuration from the one before it: the mapping layer (mapping,
   fingerprints, translations and read sets, statement costs) with and
   without order columns, and the cost engine.  Each configuration is
   priced from its parent by an oracle engine of its own, which
   re-derives every kept item afresh (memo keys included) and compares
   it; with an empty memo its cost must equal an uncached engine's.
   Along the walk, one memoizing engine prices from the parent and one
   from scratch: costs and cache traffic must agree.  (A walk-long
   oracle engine would also recompute memo hits across
   configurations, and the memo key does not tell every pair of
   configurations apart; see CHANGES.md.) *)
let run_walk (s, start, order_columns, workload_indexes, seed, steps) =
  let _, schema, workload, updates = List.nth (Lazy.force schemas) s in
  let rng = Random.State.make [| seed |] in
  let engine ?(memoize = true) ?(oracle = false) () =
    Cost_engine.create ~memoize ~oracle ~workload_indexes ~updates ~workload ()
  in
  let uncached = engine ~memoize:false () in
  let memo_parent = engine () and memo_scratch = engine () in
  let price ?parent eng s =
    match Cost_engine.price_schema ?parent eng s with
    | Ok p -> Some p
    | Error _ -> None
  in
  (* prices [s] on every path; the oracle's priced state is the next
     step's parent *)
  let priced what s ?parent ?memo_parent_state () =
    let same a b =
      match (a, b) with
      | Some a, Some b -> bits (Cost_engine.priced_cost a) = bits b
      | None, None -> true
      | _ -> false
    in
    let truth =
      Result.to_option (Cost_engine.cost_result uncached s)
    in
    let p = price ?parent (engine ~oracle:true ()) s in
    if not (same p truth) then fail "%s: oracle engine cost differs" what;
    let m = price ?parent:memo_parent_state memo_parent s in
    let m' = price memo_scratch s in
    if not (same m (Option.map Cost_engine.priced_cost m')) then
      fail "%s: memoized costs differ" what;
    let hm (e : Cost_engine.snapshot) = (e.hits, e.misses) in
    if
      hm (Cost_engine.snapshot memo_parent)
      <> hm (Cost_engine.snapshot memo_scratch)
    then fail "%s: cache traffic differs" what;
    (p, m)
  in
  let start_schema = (snd starts.(start)) schema in
  match Mapping.of_pschema ~order_columns start_schema with
  | Error _ -> true
  | Ok m ->
      let rec walk k (n : node) (p, mp) =
        if k < steps then
          match Space.neighbors ~kinds:Space.all_kinds n.schema with
          | [] -> ()
          | nbs -> (
              let step, child =
                List.nth nbs (Random.State.int rng (List.length nbs))
              in
              let what =
                Format.asprintf "step %d (%a)" (k + 1) Space.pp_step step
              in
              let p' = priced what child ?parent:p ?memo_parent_state:mp () in
              match Mapping.derive ~parent:n.mapping child with
              | Error es -> (
                  match Mapping.of_pschema ~order_columns child with
                  | Error es' when es = es' -> ()
                  | _ -> fail "%s: mapping failures differ" what)
              | Ok m' ->
                  let n' = node ~parent:n ~workload ~updates child m' in
                  compare_nodes ~workload_indexes ~what ~workload ~updates n'
                    child ~order_columns;
                  walk (k + 1) n' p')
      in
      let p0 = priced "start" start_schema () in
      walk 0 (node ~workload ~updates start_schema m) p0;
      true

(* Union factoring after distribution: from all-outlined IMDB, A
   inlines Info into Directed, and B distributes A's show union and
   factors it back.  B stores what A stores, so each of its statements
   must translate, price, execute and publish as on A. *)
let step_named schema name =
  match
    List.find_opt
      (fun (step, _) ->
        String.equal
          (String.trim (Format.asprintf "%a" Space.pp_step step))
          name)
      (Space.neighbors ~kinds:Space.all_kinds schema)
  with
  | Some (_, child) -> child
  | None -> Alcotest.failf "no step %S" name

(* all-outlined, A, the distributed step and B, on [stats] *)
let factoring_walk stats =
  let outlined = Init.all_outlined (Annotate.schema stats Imdb.Schema.schema) in
  let a = step_named outlined "inline Info into Directed" in
  let dist = step_named a "distribute union in Show at 0.5" in
  (outlined, a, dist, step_named dist "factor union in Show at")

let catalog_fingerprint m =
  Mapping.catalog_fingerprint
    (Mapping.fingerprint_list (Mapping.fingerprints m.Mapping.catalog))

(* A's and B's mappings, on the statistics of [doc] when given *)
let factored ?doc () =
  let stats =
    match doc with Some d -> Collector.collect d | None -> Imdb.Stats.full
  in
  let _, a, _, b = factoring_walk stats in
  let ma = mapping_of a and mb = mapping_of b in
  check_string "B stores what A stores" (catalog_fingerprint ma)
    (catalog_fingerprint mb);
  (ma, mb)

let suite =
  [
    prop "derived from the parent equals derived from scratch" ~count:200
      ~print:print_walk gen_walk run_walk;
    case "one step from all-inlined IMDB keeps most of the parent" (fun () ->
        (* the reuse the search banks on: tables, fingerprints and
           translations of the parent survive most single rewritings *)
        let workload = Imdb.Workloads.mixed 0.5 in
        let start = Init.all_inlined (Lazy.force annotated_imdb) in
        let m0 = mapping_of start in
        let n0 = node ~workload ~updates:[] start m0 in
        let tables = ref 0 and kept = ref 0 and stmts = ref 0 and carried = ref 0 in
        List.iter
          (fun (_, s) ->
            match Mapping.derive ~parent:m0 s with
            | Error _ -> ()
            | Ok m ->
                let n = node ~parent:n0 ~workload ~updates:[] s m in
                List.iter
                  (fun (name, _) ->
                    incr tables;
                    if Mapping.kept_fingerprint n.fps name then incr kept)
                  (Mapping.fingerprint_list n.fps);
                List.iter2
                  (fun a b ->
                    incr stmts;
                    match (a, b) with
                    | Ok (a : _ Xq_translate.translation), Ok b
                      when a.translated == b.Xq_translate.translated ->
                        incr carried
                    | _ -> ())
                  n.queries n0.queries)
          (Space.neighbors ~kinds:Space.all_kinds start);
        check_bool "most fingerprints kept" true (2 * !kept > !tables);
        check_bool "some translations carried" true (4 * !carried > !stmts));
    case "a body the table never read gains a reference to it" (fun () ->
        (* D's derivation reads D, its referrer A and A's cardinality;
           B starts referencing D, so only D's referrer list tells that
           D gains a parent.  Each of the eight rewritings that adds a
           referrer also rewrites a body the table read, so walks of
           rewritings cannot show this. *)
        let schema =
          Xschema.make ~root:"R"
            [
              {
                Xschema.name = "R";
                body =
                  Xtype.named_elem "r"
                    (Xtype.seq
                       [
                         Xtype.rep (Xtype.ref_ "A") Xtype.star;
                         Xtype.rep (Xtype.ref_ "B") Xtype.star;
                       ]);
              };
              {
                Xschema.name = "A";
                body =
                  Xtype.named_elem "a" (Xtype.rep (Xtype.ref_ "D") Xtype.star);
              };
              { Xschema.name = "B"; body = Xtype.named_elem "b" Xtype.string_ };
              { Xschema.name = "D"; body = Xtype.named_elem "d" Xtype.string_ };
            ]
        in
        let parent = mapping_of schema in
        let child =
          Xschema.update parent.Mapping.schema "B"
            (Xtype.named_elem "b" (Xtype.rep (Xtype.ref_ "D") Xtype.star))
        in
        match Mapping.derive ~parent child with
        | Error es -> Alcotest.failf "derive: %s" (String.concat "; " es)
        | Ok m ->
            check_bool "the fresh catalog" true
              (compare m.Mapping.catalog (mapping_of child).Mapping.catalog = 0);
            check_int "D's parents" 2
              (List.length (Rschema.table m.Mapping.catalog "D").Rschema.fks));
    case "a kept table carries the reads its estimates made last" (fun () ->
        (* D's foreign key reads its parent M's cardinality, which M
           takes from its first element: A, then B with the same count,
           so the child keeps D — reading B now.  When B's count
           changes next, D must be derived again. *)
        let counted n tag =
          Xtype.named_elem ~ann:{ Xtype.count = Some n; labels = [] } tag
            Xtype.string_
        in
        let m_body first =
          Xtype.seq
            [
              Xtype.ref_ first;
              Xtype.named_elem "z" Xtype.string_;
              Xtype.rep (Xtype.ref_ "D") Xtype.star;
            ]
        in
        let schema =
          Xschema.make ~root:"R"
            [
              {
                Xschema.name = "R";
                body = Xtype.named_elem "r" (Xtype.rep (Xtype.ref_ "M") Xtype.star);
              };
              { Xschema.name = "M"; body = m_body "A" };
              { Xschema.name = "A"; body = counted 10. "a" };
              { Xschema.name = "B"; body = counted 10. "b" };
              { Xschema.name = "D"; body = counted 50. "d" };
            ]
        in
        let derive parent s =
          match Mapping.derive ~parent s with
          | Ok m -> m
          | Error es -> Alcotest.failf "derive: %s" (String.concat "; " es)
        in
        let child = Xschema.update schema "M" (m_body "B") in
        let m = derive (mapping_of schema) child in
        let grandchild = Xschema.update child "B" (counted 20. "b") in
        let m' = derive m grandchild in
        check_bool "the fresh catalog" true
          (compare m'.Mapping.catalog (mapping_of grandchild).Mapping.catalog
          = 0));
    case "union factoring after distribution translates as before" (fun () ->
        let ma, mb = factored () in
        (* the three workloads draw their statements from Appendix C *)
        List.iter
          (fun (q : Xq_ast.t) ->
            check_bool q.Xq_ast.name true
              (compare (Xq_translate.translate ma q)
                 (Xq_translate.translate mb q)
              = 0))
          Imdb.Queries.all;
        List.iteri
          (fun i (u, _) ->
            check_bool (Printf.sprintf "update %d" i) true
              (compare
                 (Xq_translate.translate_update ma u)
                 (Xq_translate.translate_update mb u)
              = 0))
          imdb_updates);
    case "one oracle engine prices a union factored after distribution"
      (fun () ->
        (* one engine across the walk: a memo hit on B recomputes
           against B's own translation *)
        let workload = Imdb.Workloads.mixed 0.5 in
        let oracle =
          Cost_engine.create ~oracle:true ~updates:imdb_updates ~workload ()
        in
        let uncached =
          Cost_engine.create ~memoize:false ~updates:imdb_updates ~workload ()
        in
        let outlined, a, dist, b = factoring_walk Imdb.Stats.full in
        ignore
          (List.fold_left
             (fun parent (what, s) ->
               match Cost_engine.price_schema ?parent oracle s with
               | Error _ -> Alcotest.failf "%s: not priced" what
               | Ok p ->
                   check_bool what true
                     (bits (Cost_engine.priced_cost p)
                     = bits (Cost_engine.cost uncached s));
                   Some p)
             None
             [
               ("all-outlined", outlined);
               ("A", a);
               ("distributed", dist);
               ("B", b);
             ]
            : Cost_engine.priced option));
    case "a union factored after distribution answers as before" (fun () ->
        let doc = Lazy.force small_imdb_doc in
        let ma, mb = factored ~doc () in
        let db m = Storage.freeze (Shred.shred m doc) in
        let rows m =
          List.sort compare
            (fst (Test_integration.run_query m (db m) (Imdb.Queries.q 16)))
        in
        let rows_a = rows ma in
        check_bool "Q16 answers" true (rows_a <> []);
        check_bool "Q16 answers A's rows" true (rows mb = rows_a));
    case "a union factored after distribution publishes the document"
      (fun () ->
        let doc = Lazy.force small_imdb_doc in
        let ma, mb = factored ~doc () in
        let published m =
          Publish.document (Storage.freeze (Shred.shred m doc)) m
        in
        check_bool "A round-trips" true (Xml.equal doc (published ma));
        check_bool "B round-trips" true (Xml.equal doc (published mb)));
  ]
