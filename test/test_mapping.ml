open Legodb
open Test_util

let inlined = lazy (Init.all_inlined (Lazy.force annotated_imdb))
let m_inlined = lazy (mapping_of (Lazy.force inlined))

let table m ty = Rschema.table m.Mapping.catalog ty

(* ---- byte fingerprints against the frozen text ones ---- *)

(* [pairs] relates two fingerprints of the same things; the relation
   must be a bijection, i.e. each side is equal exactly when the other
   is *)
let check_same_partition what pairs =
  let fwd = Hashtbl.create 1024 and bwd = Hashtbl.create 1024 in
  let bind tbl k v =
    match Hashtbl.find_opt tbl k with
    | None -> Hashtbl.replace tbl k v
    | Some v' ->
        if not (String.equal v v') then
          Alcotest.failf "%s: the fingerprints partition differently" what
  in
  List.iter
    (fun (fp, ref_fp) ->
      bind fwd fp ref_fp;
      bind bwd ref_fp fp)
    pairs

(* all-inlined, normalized and every one-step neighbour of each: 48
   configurations *)
let imdb_configurations () =
  let base = Lazy.force annotated_imdb in
  let starts = [ Init.all_inlined base; Init.normalize base ] in
  starts @ List.concat_map (fun s -> List.map snd (Space.neighbors s)) starts

let edge_floats =
  [|
    0.;
    -0.;
    1.;
    0.1;
    1e300;
    5e-324;
    -5e-324;
    2.2250738585072009e-308;
    infinity;
    neg_infinity;
    nan;
    Int64.float_of_bits 0x7FF0000000000001L;
    Int64.float_of_bits 0xFFF8000000000003L;
  |]

(* column names drawn from the separators the text fingerprints used *)
let name_chars = ":;,{}|<>!?#\x00a"

let gen_float =
  QCheck2.Gen.(
    map (Array.get edge_floats) (int_bound (Array.length edge_floats - 1)))

let gen_column =
  QCheck2.Gen.(
    let f = gen_float in
    let bound = oneofl [ None; Some 0; Some (-1); Some max_int ] in
    let* cname =
      string_size
        ~gen:
          (map (String.get name_chars)
             (int_bound (String.length name_chars - 1)))
        (int_range 0 3)
    and* ctype =
      oneofl
        [ Rtype.R_int; Rtype.R_string None; Rtype.R_string (Some 1);
          Rtype.R_string (Some 2) ]
    and* nullable = bool
    and* distinct = f
    and* null_frac = f
    and* avg_width = f
    and* v_min = bound
    and* v_max = bound in
    return
      {
        Rschema.cname;
        ctype;
        nullable;
        stats = { Rschema.distinct; null_frac; v_min; v_max; avg_width };
      })

let gen_table =
  QCheck2.Gen.(
    let* columns = list_size (int_range 1 4) gen_column in
    let* key_first = bool
    and* roles = list_repeat (List.length columns) (pair bool bool)
    and* card = gen_float in
    let named = List.combine columns roles in
    let names p =
      List.filter_map
        (fun ((c : Rschema.column), r) ->
          if p r then Some c.Rschema.cname else None)
        named
    in
    return
      {
        Rschema.tname = "t";
        key = (if key_first then (List.hd columns).Rschema.cname else "~none");
        columns;
        fks = List.map (fun n -> (n, "P")) (names fst);
        indexed = names snd;
        card;
      })

(* a second table derived from the first: columns shuffled, key and
   foreign-key columns maybe renamed, maybe one column or the
   cardinality redrawn, maybe one column's index membership flipped *)
let gen_variant (t : Rschema.table) =
  QCheck2.Gen.(
    let* columns = shuffle_l t.Rschema.columns
    and* rename = bool
    and* redraw = int_range 0 (2 * List.length t.Rschema.columns + 1)
    and* flip = int_range 0 (2 * List.length t.Rschema.columns)
    and* fresh = gen_column
    and* card = gen_float in
    let n = List.length columns in
    let columns =
      List.mapi (fun i c -> if i = redraw then fresh else c) columns
    in
    let card = if redraw = n then card else t.Rschema.card in
    let indexed =
      match List.nth_opt columns flip with
      | Some c when Rschema.has_index t c.Rschema.cname ->
          List.filter
            (fun n -> not (String.equal n c.Rschema.cname))
            t.Rschema.indexed
      | Some c -> c.Rschema.cname :: t.Rschema.indexed
      | None -> t.Rschema.indexed
    in
    let t = { t with Rschema.columns; card; indexed } in
    if not rename then return t
    else
      let fk_names =
        List.mapi (fun i (f, _) -> (f, "~fk" ^ string_of_int i)) t.Rschema.fks
      in
      let renamed n =
        if String.equal n t.Rschema.key then "~key"
        else Option.value (List.assoc_opt n fk_names) ~default:n
      in
      return
        {
          t with
          Rschema.key = renamed t.Rschema.key;
          columns =
            List.map
              (fun (c : Rschema.column) ->
                { c with Rschema.cname = renamed c.Rschema.cname })
              t.Rschema.columns;
          fks = List.map (fun (f, p) -> (renamed f, p)) t.Rschema.fks;
          indexed = List.map renamed t.Rschema.indexed;
        })

(* what a shape may depend on: key and foreign-key columns anonymized,
   columns as a multiset, floats as their bits *)
let normalized (t : Rschema.table) =
  let col (c : Rschema.column) =
    let s = c.Rschema.stats in
    ( (if String.equal c.Rschema.cname t.Rschema.key then `Key
       else if List.mem_assoc c.Rschema.cname t.Rschema.fks then `Fk
       else `Name c.Rschema.cname),
      c.Rschema.ctype,
      c.Rschema.nullable,
      List.map Int64.bits_of_float
        [ s.Rschema.distinct; s.Rschema.null_frac; s.Rschema.avg_width ],
      (s.Rschema.v_min, s.Rschema.v_max),
      Rschema.has_index t c.Rschema.cname )
  in
  ( List.sort compare (List.map col t.Rschema.columns),
    Int64.bits_of_float t.Rschema.card )

let table_fp t =
  match Mapping.table_fingerprints { Rschema.tables = [ t ] } with
  | [ (_, fp) ] -> fp
  | _ -> Alcotest.fail "one table, one fingerprint"

(* ---- one-pass referrers against the per-table walk ---- *)

(* The spec of a table's foreign keys: its parents found by scanning
   every definition's body for the table and for each transparent
   ancestor, collected into a sorted set.  [of_pschema] answers the
   same question from one [Xschema.referrers] index per schema. *)
let spec_parents schema name =
  List.filter_map
    (fun (d : Xschema.defn) ->
      if List.exists (String.equal name) (Xtype.refs d.Xschema.body) then
        Some d.Xschema.name
      else None)
    (Xschema.defs schema)

let spec_real_parents schema ty =
  let module S = Set.Make (String) in
  let rec up seen d acc =
    if S.mem d seen then acc
    else
      let seen = S.add d seen in
      List.fold_left
        (fun acc referrer ->
          if Mapping.is_transparent schema referrer then up seen referrer acc
          else S.add referrer acc)
        acc (spec_parents schema d)
  in
  S.elements (up S.empty ty S.empty)

(* A random walk of every rewriting kind from all-inlined or
   all-outlined.  Half the steps are union distributions or repetition
   splits when one applies: those make the transparent types the climb
   goes through.  Every visited configuration's index must give the
   spec's referrers and, when it is a p-schema (no other maps), its
   tables the spec's foreign keys; the walk goes on from p-schemas
   only. *)
let referrers_match_walk (outlined, seed, steps) =
  let base = Lazy.force annotated_imdb in
  let rng = Random.State.make [| seed |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let check schema =
    let referrers = Xschema.referrers schema in
    List.iter
      (fun (d : Xschema.defn) ->
        if referrers d.Xschema.name <> spec_parents schema d.Xschema.name then
          QCheck2.Test.fail_reportf "%s: referrers differ" d.Xschema.name)
      (Xschema.defs schema);
    match Pschema.check schema with
    | Error _ -> false
    | Ok _ ->
        let m = mapping_of schema in
        List.iter
          (fun (t : Rschema.table) ->
            let want =
              List.map
                (fun p -> (Naming.fk_col p, p))
                (spec_real_parents schema t.Rschema.tname)
            in
            if t.Rschema.fks <> want then
              QCheck2.Test.fail_reportf "%s: foreign keys differ from the walk"
                t.Rschema.tname)
          m.Mapping.catalog.Rschema.tables;
        true
  in
  let rec walk schema n =
    if n > 0 then
      let steps = Space.applicable ~kinds:Space.all_kinds schema in
      let splitting =
        List.filter
          (fun st ->
            match Space.kind_of_step st with
            | Space.K_union_dist | Space.K_rep_split -> true
            | _ -> false)
          steps
      in
      let steps =
        if splitting <> [] && Random.State.bool rng then splitting else steps
      in
      match steps with
      | [] -> ()
      | _ -> (
          match Space.apply schema (pick steps) with
          | next -> walk (if check next then next else schema) (n - 1)
          | exception Rewrite.Not_applicable _ -> walk schema (n - 1))
  in
  let start =
    if outlined then Init.all_outlined base else Init.all_inlined base
  in
  ignore (check start);
  walk start steps;
  true

let suite =
  [
    case "one table per concrete type" (fun () ->
        let m = Lazy.force m_inlined in
        let names =
          List.map (fun (t : Rschema.table) -> t.Rschema.tname) m.Mapping.catalog.tables
        in
        List.iter
          (fun expected ->
            check_bool expected true (List.mem expected names))
          [ "IMDB"; "Show"; "Aka"; "Reviews"; "Episodes"; "Director"; "Directed";
            "Actor"; "Played"; "Award" ]);
    case "non-pschema is rejected" (fun () ->
        match Mapping.of_pschema Imdb.Schema.schema with
        | Error es -> check_bool "errors" true (es <> [])
        | Ok _ -> Alcotest.fail "expected failure");
    case "keys, fks and indexes" (fun () ->
        let m = Lazy.force m_inlined in
        let t = table m "Aka" in
        check_string "key" "Aka_id" t.Rschema.key;
        (match t.Rschema.fks with
        | [ ("parent_Show", "Show") ] -> ()
        | _ -> Alcotest.fail "bad fks");
        check_bool "key indexed" true (Rschema.has_index t "Aka_id");
        check_bool "fk indexed" true (Rschema.has_index t "parent_Show"));
    case "inlined union becomes nullable columns" (fun () ->
        let m = Lazy.force m_inlined in
        let t = table m "Show" in
        let bo = Rschema.column t "box_office" in
        check_bool "nullable" true bo.Rschema.nullable;
        check_bool "null fraction" true
          (abs_float (bo.Rschema.stats.null_frac -. (1. -. (7000. /. 34798.))) < 0.01);
        let title = Rschema.column t "title" in
        check_bool "title not nullable" false title.Rschema.nullable);
    case "statistics translated" (fun () ->
        let m = Lazy.force m_inlined in
        let t = table m "Show" in
        check_bool "card" true (t.Rschema.card = 34798.);
        let year = Rschema.column t "year" in
        check_bool "min" true (year.Rschema.stats.v_min = Some 1800);
        check_bool "distinct" true (year.Rschema.stats.distinct = 300.);
        let title = Rschema.column t "title" in
        check_bool "width" true (title.Rschema.stats.avg_width = 50.));
    case "nested inline elements use path-joined names" (fun () ->
        let m = Lazy.force m_inlined in
        let t = table m "Actor" in
        check_bool "biography_birthday" true
          (Rschema.find_column t "biography_birthday" <> None));
    case "scalar-rooted type uses the root tag column" (fun () ->
        let m = Lazy.force m_inlined in
        let t = table m "Aka" in
        check_bool "aka column" true (Rschema.find_column t "aka" <> None));
    case "wildcard gets tag and value columns" (fun () ->
        let m = Lazy.force m_inlined in
        let t = table m "Reviews" in
        check_bool "tilde" true (Rschema.find_column t "tilde" <> None);
        check_bool "value (root tag rule)" true
          (Rschema.find_column t "reviews" <> None));
    case "transparent types are collapsed" (fun () ->
        let s = Lazy.force inlined in
        (* distribute the (movie|tv) optional pair?  use section2 with a
           real union instead *)
        ignore s;
        let s2 = Annotate.schema Pathstat.empty Imdb.Schema.section2 in
        let loc =
          let body = Xschema.find s2 "Show" in
          match
            List.find_opt
              (fun (_, t) -> match t with Xtype.Choice _ -> true | _ -> false)
              (Xtype.locations body)
          with
          | Some (l, _) -> l
          | None -> Alcotest.fail "no choice"
        in
        let dist = Rewrite.distribute_union s2 ~tname:"Show" ~loc in
        let m = mapping_of dist in
        check_bool "Show is transparent" true (List.mem "Show" m.Mapping.transparent);
        check_bool "no Show table" true
          (Rschema.find_table m.Mapping.catalog "Show" = None);
        (* the parts attach directly to IMDB *)
        let p1 = table m "Show_Part1" in
        (match p1.Rschema.fks with
        | [ ("parent_IMDB", "IMDB") ] -> ()
        | _ -> Alcotest.fail "parts should reference IMDB");
        (* the shared Aka table now has two nullable parents *)
        let aka = table m "Aka" in
        check_int "two fks" 2 (List.length aka.Rschema.fks));
    case "navigate: inline column" (fun () ->
        let m = Lazy.force m_inlined in
        match Navigate.navigate m { Navigate.ty = "Show"; prefix = [] } "title" with
        | [ Navigate.F_column { hops = []; ty = "Show"; column = "title" } ] -> ()
        | fs ->
            Alcotest.failf "unexpected: %s"
              (String.concat "; " (List.map (Format.asprintf "%a" Navigate.pp_found) fs)));
    case "navigate: outlined child" (fun () ->
        let m = Lazy.force m_inlined in
        match Navigate.navigate m { Navigate.ty = "Show"; prefix = [] } "aka" with
        | [ Navigate.F_column { hops = [ "Aka" ]; ty = "Aka"; column = "aka" } ] -> ()
        | _ -> Alcotest.fail "expected the Aka chain");
    case "navigate: nested inline element" (fun () ->
        let m = Lazy.force m_inlined in
        match Navigate.navigate m { Navigate.ty = "Actor"; prefix = [] } "biography" with
        | [ Navigate.F_elem { hops = []; place = { ty = "Actor"; prefix = [ "biography" ] } } ] ->
            ()
        | _ -> Alcotest.fail "expected an inline element");
    case "navigate: wildcard step" (fun () ->
        let m = Lazy.force m_inlined in
        match Navigate.navigate m { Navigate.ty = "Show"; prefix = [] } "reviews" with
        | [ Navigate.F_elem { hops = [ "Reviews" ]; place } ] -> (
            match Navigate.navigate m place "nyt" with
            | [ Navigate.F_wild { ty = "Reviews"; tilde = "tilde"; data = "reviews"; tag = "nyt"; _ } ] ->
                ()
            | _ -> Alcotest.fail "expected a wildcard hit")
        | _ -> Alcotest.fail "expected the Reviews chain");
    case "navigate: attribute step" (fun () ->
        let m = mapping_of (Init.all_inlined Imdb.Schema.section2) in
        match Navigate.navigate m { Navigate.ty = "Show"; prefix = [] } "type" with
        | [ Navigate.F_column { column = "type"; _ } ] -> ()
        | _ -> Alcotest.fail "expected the attribute column");
    case "navigate_path chains hops" (fun () ->
        let m = Lazy.force m_inlined in
        match
          Navigate.navigate_path m
            [
              Navigate.F_elem
                { hops = []; place = { Navigate.ty = "IMDB"; prefix = [] } };
            ]
            [ "actor"; "played"; "title" ]
        with
        | [ Navigate.F_column { hops = [ "Actor"; "Played" ]; column = "title"; _ } ] -> ()
        | _ -> Alcotest.fail "expected a two-hop chain");
    case "enter_root matches the document root" (fun () ->
        let m = Lazy.force m_inlined in
        (match Navigate.enter_root m "imdb" with
        | [ Navigate.F_elem { hops = [ "IMDB" ]; _ } ] -> ()
        | _ -> Alcotest.fail "expected the IMDB table");
        check_int "no match" 0 (List.length (Navigate.enter_root m "nope")));
    case "descendant_tables for publish" (fun () ->
        let m = Lazy.force m_inlined in
        let chains =
          Navigate.descendant_tables m { Navigate.ty = "Show"; prefix = [] }
        in
        let lasts = List.map (fun hops -> List.nth hops (List.length hops - 1)) chains in
        List.iter
          (fun t -> check_bool t true (List.mem t lasts))
          [ "Aka"; "Reviews"; "Episodes" ];
        check_int "exactly three" 3 (List.length chains));
    case "descendant_tables stops on recursion" (fun () ->
        let s =
          Xschema.make ~root:"R"
            [
              {
                Xschema.name = "R";
                body = Xtype.named_elem "r" (Xtype.rep (Xtype.ref_ "R") Xtype.star);
              };
            ]
        in
        let m = mapping_of s in
        let chains = Navigate.descendant_tables m { Navigate.ty = "R"; prefix = [] } in
        check_int "one level" 1 (List.length chains));
    case "partitioned binding resolves to both parts" (fun () ->
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
        let dist = Rewrite.distribute_union s2 ~tname:"Show" ~loc in
        let m = mapping_of dist in
        check_int "two targets" 2
          (List.length
             (Navigate.navigate m { Navigate.ty = "IMDB"; prefix = [] } "show")));
    case "byte fingerprints partition like the frozen text ones" (fun () ->
        let configurations =
          imdb_configurations ()
          @ List.concat_map
              (fun (_, (_, visited)) -> visited)
              (Lazy.force reference_beams)
        in
        let catalogs =
          List.filter_map
            (fun s ->
              match Mapping.of_pschema s with
              | Ok m -> Some m.Mapping.catalog
              | Error _ -> None)
            configurations
        in
        check_bool "the corpus is the searched space" true
          (List.length catalogs > 1000);
        let per_catalog =
          List.map
            (fun cat ->
              let fps = Mapping.table_fingerprints cat in
              let refs = Fingerprint_reference.table_fingerprints cat in
              check_bool "same tables, same order" true
                (List.map fst fps = List.map fst refs);
              ( (Mapping.catalog_fingerprint fps,
                 Fingerprint_reference.catalog_fingerprint cat),
                List.combine (List.map snd fps) (List.map snd refs) ))
            catalogs
        in
        check_same_partition "catalogs" (List.map fst per_catalog);
        check_same_partition "tables" (List.concat_map snd per_catalog));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500
         ~name:"table fingerprints are equal exactly when shapes are"
         QCheck2.Gen.(
           let* t = gen_table in
           let* t' = oneof [ gen_variant t; gen_table ] in
           return (t, t'))
         (fun (t, t') ->
           Bool.equal
             (String.equal (table_fp t) (table_fp t'))
             (normalized t = normalized t')));
    case "fingerprint edge cases: separators, signed zeros, NaN payloads"
      (fun () ->
        let col cname distinct =
          {
            Rschema.cname;
            ctype = Rtype.R_int;
            nullable = false;
            stats =
              {
                Rschema.distinct;
                null_frac = 0.;
                v_min = None;
                v_max = None;
                avg_width = 4.;
              };
          }
        in
        let tbl ?(key = "k") columns =
          {
            Rschema.tname = "t";
            key;
            columns;
            fks = [];
            indexed = [];
            card = 1.;
          }
        in
        let text_fp t =
          let cat = { Rschema.tables = [ t ] } in
          snd (List.hd (Fingerprint_reference.table_fingerprints cat))
        in
        (* [a] and [b] differ; the text fingerprints aliased them when
           [aliased] *)
        let differ ?(aliased = false) what a b =
          check_bool (what ^ ": text") aliased
            (String.equal (text_fp a) (text_fp b));
          check_bool (what ^ ": bytes") false
            (String.equal (table_fp a) (table_fp b))
        in
        (* the text joined sorted column signatures with ';' *)
        let sig_x = "x:INT{0x1p+0,0x0p+0,,,0x1p+2}" in
        differ ~aliased:true "separator in a name"
          (tbl [ col "x" 1.; col "y" 1. ])
          (tbl [ col (sig_x ^ ";y") 1. ]);
        differ ~aliased:true "a column named like the key's tag"
          (tbl [ col "k" 1. ])
          (tbl [ col "#key" 1. ]);
        differ ~aliased:true "NaN payload"
          (tbl [ col "a" nan ])
          (tbl [ col "a" (Int64.float_of_bits 0x7FF0000000000001L) ]);
        differ "signed zero" (tbl [ col "a" 0. ]) (tbl [ col "a" (-0.) ]);
        (* without its length prefix a name could spell the fields
           after it: "a", then a distinct count whose three high bytes
           are the tags I, = and d, against a longer name that carries
           on into them *)
        let bits = Int64.float_of_bits in
        let with_stats (c : Rschema.column) null_frac v_min =
          {
            c with
            Rschema.stats = { c.Rschema.stats with Rschema.null_frac; v_min };
          }
        in
        differ "a name spelling the fields after it"
          (tbl
             [
               with_stats
                 (col "a" (bits 0x643D490000000000L))
                 (bits 0x7A00000000000000L) (Some 0x2D00000000000000);
             ])
          (tbl
             [
               with_stats
                 (col "aI=d\000\000\000\000\000" (bits 0x7AL))
                 (bits 0x2BL) None;
             ]);
        check_string "key renamed, columns reordered"
          (table_fp (tbl [ col "k" 1.; col "a" 2. ]))
          (table_fp (tbl ~key:"id" [ col "a" 2.; col "id" 1. ])));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:60
         ~name:"one-pass referrers give the per-table walk's foreign keys"
         QCheck2.Gen.(triple bool (int_range 0 0xFFFF) (int_range 1 8))
         referrers_match_walk);
    case "paths that join to one column name keep their own columns"
      (fun () ->
        (* a/b_c and a_b/c both join to a_b_c: the catalog renames the
           second, and translation, shredding and publishing must all
           use the renamed column *)
        let schema =
          Xtype_parse.schema_of_string
            {|type R = r [ T{0,*} ]
              type T = t [ a [ b_c [ String ] ], a_b [ c [ String ] ] ]|}
        in
        let doc =
          Xml_parse.parse_string
            "<r><t><a><b_c>X</b_c></a><a_b><c>Y</c></a_b></t></r>"
        in
        let m =
          mapping_of (Init.all_inlined (Annotate.schema Pathstat.empty schema))
        in
        Alcotest.(check (list string))
          "catalog" [ "T_id"; "a_b_c"; "a_b_c_2"; "parent_R" ]
          (Mapping.table_columns m "T");
        let db = Shred.shred m doc in
        check_bool "round trip" true (Xml.equal doc (Publish.document db m));
        let answer path =
          let q =
            Xq_parse.parse ~name:path
              ("FOR $t IN document(\"x\")/r/t RETURN $t/" ^ path)
          in
          let lq = Xq_translate.translate m q in
          let plans, columns =
            List.split
              (List.map
                 (fun (b : Logical.block) ->
                   let opt = Optimizer.optimize_block (Storage.catalog db) b in
                   ( (opt.Optimizer.plan, b.Logical.out),
                     List.map snd b.Logical.out ))
                 lq.Logical.blocks)
          in
          (List.concat columns, fst (Executor.run_query db plans))
        in
        let x_cols, x_rows = answer "a/b_c" in
        let y_cols, y_rows = answer "a_b/c" in
        Alcotest.(check (list string)) "a/b_c column" [ "a_b_c" ] x_cols;
        Alcotest.(check (list string)) "a_b/c column" [ "a_b_c_2" ] y_cols;
        check_bool "a/b_c answers X" true (x_rows = [ [ Rtype.V_string "X" ] ]);
        check_bool "a_b/c answers Y" true
          (y_rows = [ [ Rtype.V_string "Y" ] ]);
        (* a repeated sibling tag repeats its position: the key cannot
           tell the two apart, so it keeps the first one's column *)
        let repeated =
          Xtype_parse.schema_of_string
            {|type R = r [ T{0,*} ]
              type T = t [ a [ String ], a [ String ] ]|}
        in
        let m =
          mapping_of
            (Init.all_inlined (Annotate.schema Pathstat.empty repeated))
        in
        Alcotest.(check (list string))
          "repeated catalog" [ "T_id"; "a"; "a_2"; "parent_R" ]
          (Mapping.table_columns m "T");
        check_string "repeated position" "a"
          (Mapping.column m ~ty:"T" (Scalar [ "a" ])));
    case "wildcard positions use the columns the catalog declares"
      (fun () ->
        (* a wildcard root's content sits below its "tilde" step, and a
           wildcard over a union of scalars keeps its value in the
           wildcard's value column *)
        List.iter
          (fun (types, columns, text) ->
            let schema =
              Xtype_parse.schema_of_string ("type R = r [ T{0,*} ] " ^ types)
            in
            let m =
              mapping_of
                (Init.all_inlined (Annotate.schema Pathstat.empty schema))
            in
            Alcotest.(check (list string))
              (types ^ " catalog") columns
              (Mapping.table_columns m "T");
            let doc = Xml_parse.parse_string text in
            check_bool (types ^ " round trip") true
              (Xml.equal doc (Publish.document (Shred.shred m doc) m)))
          [
            ( "type T = ~[ name [ String ] ]",
              [ "T_id"; "tilde"; "tilde_name"; "parent_R" ],
              "<r><u><name>N</name></u></r>" );
            ( "type T = t [ x [ ~[ String | Integer ] ] ]",
              [ "T_id"; "x_tilde"; "x"; "parent_R" ],
              "<r><t><x><u>V</u></x></t></r>" );
          ]);
  ]
