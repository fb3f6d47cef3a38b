(* The compiled executor against the frozen interpreter it replaced
   (test/reference/executor_reference.ml): on every plan, the same rows
   in the same order and every [measures] field bit-identical, whether
   the plan is compiled once and run many times or compiled per run;
   and the same failures, raised as [Invalid_argument]. *)

open Legodb
open Test_util

let mem_params =
  { Cost.default_params with Cost.seek_weight = 0.1; read_weight = 0.1 }

let weights = [ ("disk", Cost.default_params); ("memory", mem_params) ]

let same_measures (m : Executor.measures) (r : Executor_reference.measures) =
  m.tuples_scanned = r.tuples_scanned
  && m.index_probes = r.index_probes
  && m.join_tuples = r.join_tuples
  && Int64.equal
       (Int64.bits_of_float m.bytes_read)
       (Int64.bits_of_float r.bytes_read)
  && m.output_rows = r.output_rows

let pp_measures_diff (m : Executor.measures) (r : Executor_reference.measures)
    =
  Printf.sprintf
    "scanned %d/%d probes %d/%d joined %d/%d bytes %h/%h out %d/%d"
    m.tuples_scanned r.tuples_scanned m.index_probes r.index_probes
    m.join_tuples r.join_tuples m.bytes_read r.bytes_read m.output_rows
    r.output_rows

let outcome f =
  match f () with v -> Ok v | exception Invalid_argument m -> Error m

(* [None] when the compiled run and the interpreter's agree: equal rows
   and measures, or both raised [Invalid_argument] *)
let disagreement compiled reference =
  match (outcome compiled, outcome reference) with
  | Ok (rows, m), Ok (rrows, r) ->
      if rows <> rrows then
        Some
          (Printf.sprintf "rows differ: %d compiled, %d interpreted"
             (List.length rows) (List.length rrows))
      else if not (same_measures m r) then Some (pp_measures_diff m r)
      else None
  | Error _, Error _ -> None
  | Error m, Ok _ -> Some ("only the compiled run raised: " ^ m)
  | Ok _, Error m -> Some ("only the interpreter raised: " ^ m)

let check_plan what ?params db plan out =
  match
    disagreement
      (fun () -> Executor.run_block ?params db plan out)
      (fun () -> Executor_reference.run_block ?params db plan out)
  with
  | None -> ()
  | Some m ->
      Alcotest.failf "%s: %s@.%s" what m
        (Format.asprintf "%a" Physical.pp plan)

(* ------------------------------------------------------------------ *)
(* plan variants: every join method, and probes for eligible scans     *)
(* ------------------------------------------------------------------ *)

(* the plan with every join's method replaced by [jm] (index-nl where
   a condition names the right scan's alias, which it probes) *)
let rec with_method jm plan =
  match plan with
  | Physical.Scan _ -> plan
  | Physical.Join j ->
      let left = with_method jm j.left and right = with_method jm j.right in
      let jm =
        match (jm, right) with
        | `Index_nl, Physical.Scan { rel; _ } -> (
            match
              List.find_opt
                (fun (_, (ra, _)) -> String.equal ra rel.Logical.alias)
                j.conds
            with
            | Some (_, (_, column)) -> Physical.Index_nl { column }
            | None -> Physical.Nl_join)
        | `Index_nl, Physical.Join _ -> Physical.Nl_join
        | `Hash, _ -> Physical.Hash_join
        | `Nl, _ -> Physical.Nl_join
      in
      Physical.Join { j with jm; left; right }

(* the plan with every scan that has an equality filter against a
   constant or a slot probing its column's index (or, unindexed, the
   lookup's scan fallback) *)
let rec with_probes plan =
  match plan with
  | Physical.Scan ({ filters; _ } as s) -> (
      match
        List.find_opt
          (fun (p : Logical.pred) ->
            p.cmp = Logical.C_eq
            && match p.rhs with Logical.O_col _ -> false | _ -> true)
          filters
      with
      | Some p ->
          Physical.Scan
            { s with access = Physical.Index_probe { column = snd p.lhs } }
      | None -> plan)
  | Physical.Join j ->
      Physical.Join
        { j with left = with_probes j.left; right = with_probes j.right }

let variants plan =
  plan :: with_probes plan
  :: List.map (fun jm -> with_method jm plan) [ `Hash; `Nl; `Index_nl ]

(* ------------------------------------------------------------------ *)
(* random catalogs, rows and blocks                                    *)
(* ------------------------------------------------------------------ *)

(* a few rows per table over a tiny value range, a fifth of them NULL,
   so joins match, NULL keys turn up on both sides, and cross products
   stay small *)
let fill (cat : Rschema.t) seed =
  let rng = Random.State.make [| seed |] in
  (* any data column may take a NULL below, and the store refuses a
     NULL in a column its catalog declares NOT NULL *)
  let nullable (t : Rschema.table) =
    {
      t with
      Rschema.columns =
        List.map
          (fun (c : Rschema.column) ->
            { c with Rschema.nullable = c.Rschema.nullable || c.Rschema.cname <> t.Rschema.key })
          t.Rschema.columns;
    }
  in
  let db = Storage.create { Rschema.tables = List.map nullable cat.Rschema.tables } in
  List.iter
    (fun (t : Rschema.table) ->
      for i = 0 to Random.State.int rng 6 - 1 do
        Storage.insert db t.tname
          (Array.of_list
             (List.mapi
                (fun c _ ->
                  if c = 0 then Rtype.V_int i
                  else if Random.State.int rng 5 = 0 then Rtype.V_null
                  else Rtype.V_int (Random.State.int rng 4))
                t.columns))
      done)
    cat.tables;
  db

let small_const =
  QCheck2.Gen.(
    oneof
      [
        map (fun v -> Rtype.V_int v) (int_range 0 4);
        return Rtype.V_null;
        return (Rtype.V_string "0");
      ])

(* a block, plus sometimes more column equalities, so a join carries
   several conditions (multi-column hash keys, index-nl conditions
   checked beside the probe) and a scan compares two of its columns *)
let gen_random_case =
  QCheck2.Gen.(
    let* cat = Test_optimizer_perf.gen_catalog in
    let* nrels = int_range 1 4 in
    let* block = Test_optimizer_perf.gen_block ~const:small_const cat nrels in
    let aliases =
      List.map (fun (r : Logical.relation) -> r.alias) block.relations
    in
    let* more =
      list_size (int_range 0 3)
        (let* a = oneofl aliases and* b = oneofl aliases in
         let* lhs = Test_optimizer_perf.gen_col a
         and* rhs = Test_optimizer_perf.gen_col b in
         return (Logical.eq_col lhs rhs))
    in
    let+ seed = int_bound 1_000_000 in
    (cat, { block with preds = block.preds @ more }, seed))

let prop_random_plans =
  QCheck2.Test.make ~name:"random plans: every join method, bit-identical"
    ~count:150
    ~print:(fun (cat, block, seed) ->
      Printf.sprintf "seed %d@.%s" seed
        (Test_optimizer_perf.print_case (cat, block)))
    gen_random_case
    (fun (cat, block, seed) ->
      let db = fill cat seed in
      List.iter
        (fun (w, params) ->
          let r = Optimizer.optimize_block ~params cat block in
          List.iter
            (fun plan -> check_plan w db plan block.Logical.out)
            (variants r.Optimizer.plan))
        weights;
      true)

(* ------------------------------------------------------------------ *)
(* the IMDB configurations the search visits, Appendix C queries       *)
(* ------------------------------------------------------------------ *)

(* all-inlined, normalized, and every one-step neighbour of each: the
   48 configurations the optimizer differential plans on *)
let imdb_configurations () =
  let doc = Lazy.force small_imdb_doc in
  let schema = Lazy.force annotated_imdb in
  let configs =
    List.concat_map
      (fun start -> start :: List.map snd (Space.neighbors start))
      [ Init.all_inlined schema; Init.normalize schema ]
  in
  check_int "configurations" 48 (List.length configs);
  List.iteri
    (fun ci config ->
      let m = mapping_of config in
      let db = Storage.freeze (Shred.shred m doc) in
      let cat = Storage.catalog db in
      List.iteri
        (fun qi xq ->
          let lq = Xq_translate.translate m xq in
          List.iter
            (fun (w, params) ->
              let blocks =
                List.map
                  (fun (b : Logical.block) ->
                    ((Optimizer.optimize_block ~params cat b).Optimizer.plan,
                     b.Logical.out))
                  lq.Logical.blocks
              in
              List.iteri
                (fun bi (plan, out) ->
                  check_plan
                    (Printf.sprintf "config %d Q%d block %d (%s)" ci (qi + 1)
                       bi w)
                    db plan out)
                blocks;
              (* the outer union: rows concatenated, measures summed
                 in block order *)
              match
                ( Executor.run_query db blocks,
                  Executor_reference.run_query db blocks )
              with
              | (rows, m), (rrows, r) ->
                  if rows <> rrows || not (same_measures m r) then
                    Alcotest.failf "config %d Q%d run_query (%s)" ci (qi + 1)
                      w)
            weights)
        Imdb.Queries.all)
    configs

(* ------------------------------------------------------------------ *)
(* the serving templates, compiled once, random parameter vectors      *)
(* ------------------------------------------------------------------ *)

(* serve_perf's four templates: show by year, actor by name, actor with
   the shows they played in, show by title *)
let serving_templates =
  [
    "FOR $v IN document(\"imdb\")/imdb/show WHERE $v/year = 1990 RETURN \
     $v/title, $v/year, $v/type";
    "FOR $a IN document(\"imdb\")/imdb/actor WHERE $a/name = \"x\" RETURN \
     $a/name";
    "FOR $i IN document(\"imdb\")/imdb $a in $i/actor, $m1 in $a/played \
     WHERE $a/name = \"x\" RETURN $a/name, $m1/title, $m1/year";
    "FOR $v IN document(\"imdb\")/imdb/show WHERE $v/title = \"x\" RETURN \
     $v/title, $v/year";
  ]

(* a parameter vector: mostly the document's own values (so probes
   hit), sometimes another kind, NULL, or a value no row holds; and
   sometimes too short, so a slot is unbound where it is read *)
let gen_params pool nslots =
  QCheck2.Gen.(
    let value =
      oneof
        [
          map (fun s -> Rtype.V_string s) (oneofl pool);
          map (fun s -> Rtype.V_string s) (oneofl pool);
          map (fun n -> Rtype.V_int n) (int_range 1800 2100);
          map
            (fun s -> match int_of_string_opt s with
              | Some n -> Rtype.V_int n
              | None -> Rtype.V_string s)
            (oneofl pool);
          return Rtype.V_null;
          return (Rtype.V_string "no such value");
        ]
    in
    let* n = frequency [ (9, return nslots); (1, int_range 0 nslots) ] in
    array_repeat n value)

let serving_templates_case () =
  let doc = Lazy.force small_imdb_doc in
  let pool =
    List.concat_map (Xq_eval.path_values doc)
      [ [ "show"; "year" ]; [ "actor"; "name" ]; [ "show"; "title" ] ]
  in
  let schema = Annotate.schema (Collector.collect doc) Imdb.Schema.schema in
  let rand = Random.State.make [| 20 |] in
  let slot_probes = ref 0 in
  let rec probes_a_slot = function
    | Physical.Scan { access = Physical.Index_probe _; filters; _ } ->
        List.exists
          (fun (p : Logical.pred) ->
            match p.rhs with Logical.O_param _ -> true | _ -> false)
          filters
    | Physical.Scan _ -> false
    | Physical.Join { left; right; _ } ->
        probes_a_slot left || probes_a_slot right
  in
  List.iter
    (fun (cname, config) ->
      (* the serving mapping: equality indexes on the template columns,
         so memory weights plan the slots as index probes *)
      let m = mapping_of config in
      let eq =
        Xq_translate.equality_columns
          (List.map
             (fun t -> Xq_translate.translate m (Xq_parse.parse ~name:"rep" t))
             serving_templates)
      in
      let m =
        { m with Mapping.catalog = Rschema.add_indexes m.Mapping.catalog eq }
      in
      let db = Storage.freeze (Shred.shred m doc) in
      let cat = Storage.catalog db in
      List.iteri
        (fun ti text ->
          let q = Xq_parse.parse ~name:"template" text in
          let body, consts = Xq_ast.lift q.Xq_ast.body in
          let lq = Xq_translate.translate m { q with Xq_ast.body } in
          List.iter
            (fun (w, params) ->
              List.iteri
                (fun bi (b : Logical.block) ->
                  let plan =
                    (Optimizer.optimize_block ~params cat b).Optimizer.plan
                  in
                  if probes_a_slot plan then incr slot_probes;
                  (* compiled once, as the server keeps it, and run for
                     every vector *)
                  let compiled = Executor.compile db plan b.Logical.out in
                  for _ = 1 to 60 do
                    let args =
                      QCheck2.Gen.generate1 ~rand
                        (gen_params pool (Array.length consts))
                    in
                    match
                      disagreement
                        (fun () -> Executor.run ~params:args compiled)
                        (fun () ->
                          Executor_reference.run_block ~params:args db plan
                            b.Logical.out)
                    with
                    | None -> ()
                    | Some d ->
                        Alcotest.failf "%s template %d block %d (%s): %s"
                          cname ti bi w d
                  done)
                lq.Logical.blocks)
            weights)
        serving_templates)
    [
      ("all-inlined", Init.all_inlined schema);
      ("normalized", Init.normalize schema);
    ];
  check_bool "some plan probes an index with a slot" true (!slot_probes > 0)

(* ------------------------------------------------------------------ *)
(* NULL join keys, and the failures                                    *)
(* ------------------------------------------------------------------ *)

let rel alias table = { Logical.alias; table }

let scan ?(filters = []) ?(access = Physical.Seq_scan) table alias =
  Physical.Scan { rel = rel alias table; access; filters }

let join ?(extra = []) jm conds left right =
  Physical.Join { jm; left; right; conds; extra }

(* two-column keys too: a tuple whose key holds one NULL never matches *)
let null_keys () =
  let db = Test_optimizer.null_db () in
  let out = [ ("l", "L_id"); ("r", "R_id") ] in
  let one = [ (("l", "k"), ("r", "k")) ] in
  let two = [ (("l", "k"), ("r", "k")); (("l", "L_id"), ("r", "R_id")) ] in
  let methods =
    [ Physical.Hash_join; Physical.Nl_join; Physical.Index_nl { column = "k" } ]
  in
  List.iter
    (fun jm ->
      List.iter
        (fun conds ->
          let plan = join jm conds (scan "L" "l") (scan "R" "r") in
          check_plan "null keys" db plan out;
          check_plan "null keys, every column" db plan [];
          check_bool "only the non-NULL pair joins" true
            (fst (Executor.run_block db plan out)
            = [ [ Rtype.V_int 0; Rtype.V_int 0 ] ]))
        [ one; two ])
    methods;
  (* a NULL constant or parameter, probed or filtered, matches nothing *)
  let probe v =
    scan "R" "r" ~access:(Physical.Index_probe { column = "k" })
      ~filters:[ Logical.eq_const ("r", "k") v ]
  in
  check_plan "NULL probe" db (probe Rtype.V_null) [];
  check_plan "NULL filter" db
    (scan "R" "r" ~filters:[ Logical.eq_const ("r", "k") Rtype.V_null ])
    [];
  check_plan "NULL parameter" db
    ~params:[| Rtype.V_null |]
    (scan "R" "r" ~access:(Physical.Index_probe { column = "k" })
       ~filters:
         [ { Logical.cmp = Logical.C_eq; lhs = ("r", "k"); rhs = O_param 0 } ])
    []

let raises_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument _ -> ()

let errors () =
  let db = Test_optimizer.null_db () in
  let both what ?params plan out =
    raises_invalid (what ^ ", compiled") (fun () ->
        Executor.run_block ?params db plan out);
    raises_invalid (what ^ ", interpreted") (fun () ->
        Executor_reference.run_block ?params db plan out)
  in
  let l = scan "L" "l" and r = scan "R" "r" in
  let slot k =
    { Logical.cmp = Logical.C_eq; lhs = ("l", "k"); rhs = Logical.O_param k }
  in
  both "unknown alias in the projection" l [ ("zz", "k") ];
  both "unknown alias in a filter" (scan "L" "l"
    ~filters:[ Logical.eq_const ("zz", "k") (Rtype.V_int 1) ]) [];
  both "unknown alias in a join condition"
    (join Physical.Nl_join [ (("l", "k"), ("zz", "k")) ] l r) [];
  both "unknown table" (scan "Nope" "n") [];
  both "unbound slot" (scan "L" "l" ~filters:[ slot 0 ]) [];
  both "slot beyond the vector" ~params:[| Rtype.V_int 1 |]
    (scan "L" "l" ~filters:[ slot 1 ]) [];
  both "unbound probe key"
    (scan "L" "l" ~access:(Physical.Index_probe { column = "k" })
       ~filters:[ slot 0 ]) [];
  both "probe without an equality filter"
    (scan "L" "l" ~access:(Physical.Index_probe { column = "k" })) [];
  both "index-nl without a probe condition"
    (join (Physical.Index_nl { column = "L_id" }) [ (("l", "k"), ("r", "k")) ]
       l r) [];
  both "index-nl over a join"
    (join (Physical.Index_nl { column = "k" }) [ (("l", "k"), ("r", "k")) ]
       l (join Physical.Nl_join [] r (scan "R" "s"))) [];
  (* an unknown column: [Invalid_argument], as both interfaces
     document; the interpreter let [Storage.column_position]'s
     [Not_found] escape *)
  raises_invalid "unknown column" (fun () ->
      Executor.run_block db l [ ("l", "nope") ]);
  (match Executor_reference.run_block db l [ ("l", "nope") ] with
  | _ -> Alcotest.fail "the interpreter read an unknown column"
  | exception Not_found -> ());
  (* a slot is unbound only where it is read: no row, no read *)
  let empty = Storage.create (Storage.catalog db) in
  List.iter
    (fun (what, run) ->
      check_bool what true
        (run empty (scan "L" "l" ~filters:[ slot 3 ]) [] = []))
    [
      ("unread slot, compiled", fun db p o -> fst (Executor.run_block db p o));
      ( "unread slot, interpreted",
        fun db p o -> fst (Executor_reference.run_block db p o) );
    ];
  (* and a plan compiled against a store runs for every vector *)
  let c = Executor.compile db (scan "L" "l" ~filters:[ slot 0 ]) [] in
  raises_invalid "compiled, then run unbound" (fun () -> Executor.run c);
  check_int "then bound" 1
    (List.length (fst (Executor.run ~params:[| Rtype.V_int 1 |] c)))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_random_plans;
    case "IMDB configurations and neighbours, Appendix C queries"
      imdb_configurations;
    case "serving templates: compiled once, random parameters"
      serving_templates_case;
    case "NULL join keys under every join method" null_keys;
    case "failures raise Invalid_argument where the interpreter did" errors;
  ]
