(* Differential tests holding the mask-indexed optimizer bit-identical
   to the frozen reference implementation (Optimizer_reference): same
   best plan, same row estimate, same cost — to the last float bit —
   on random catalogs and blocks, with and without the shared
   common-subexpression cache, on update write costs, and on the IMDB
   catalogs the design search visits. *)

open Legodb

let params = Cost.default_params

let bits = Int64.bits_of_float

let same_float what a b =
  Alcotest.(check int64) what (bits a) (bits b)

let same_cost what (a : Cost.t) (b : Cost.t) =
  same_float (what ^ ".seeks") a.Cost.seeks b.Cost.seeks;
  same_float (what ^ ".pages_read") a.Cost.pages_read b.Cost.pages_read;
  same_float (what ^ ".pages_written") a.Cost.pages_written b.Cost.pages_written;
  same_float (what ^ ".cpu") a.Cost.cpu b.Cost.cpu

let same_result what (fast : Optimizer.result) (ref_ : Optimizer_reference.result)
    =
  if fast.Optimizer.plan <> ref_.Optimizer_reference.plan then
    Alcotest.failf "%s: plans differ:@.fast %a@.ref  %a" what Physical.pp
      fast.Optimizer.plan Physical.pp ref_.Optimizer_reference.plan;
  same_float (what ^ ".rows") fast.Optimizer.rows ref_.Optimizer_reference.rows;
  same_cost (what ^ ".cost") fast.Optimizer.cost ref_.Optimizer_reference.cost

(* ---------- generators ---------- *)

(* every table shares the column set {id, a, b, c} so any (alias,
   column) pair is wellformed; what varies is cardinality, statistics,
   and which columns are indexed *)
let data_cols = [ "a"; "b"; "c" ]

let gen_table name =
  QCheck2.Gen.(
    let* card = oneofl [ 10.; 120.; 4000.; 150000. ] in
    let* widths = list_repeat 3 (oneofl [ 4.; 8.; 40. ]) in
    let* distincts =
      list_repeat 3 (oneofl [ 1.; 7.; 50.; card /. 2.; card ])
    in
    let* null_fracs = list_repeat 3 (oneofl [ 0.; 0.1; 0.5 ]) in
    let* ranged = list_repeat 3 bool in
    let* extra_indexed = list_repeat 3 bool in
    let col cname ~width ~distinct ~null_frac ~range =
      {
        Rschema.cname;
        ctype = Rtype.R_int;
        nullable = null_frac > 0.;
        stats =
          {
            Rschema.distinct = Float.max 1. (Float.min distinct card);
            null_frac;
            v_min = (if range then Some 0 else None);
            v_max = (if range then Some (int_of_float card) else None);
            avg_width = width;
          };
      }
    in
    let key = col "id" ~width:4. ~distinct:card ~null_frac:0. ~range:true in
    let data =
      List.map
        (fun (((cname, width), (distinct, null_frac)), range) ->
          col cname ~width ~distinct ~null_frac ~range)
        (List.combine
           (List.combine
              (List.combine data_cols widths)
              (List.combine distincts null_fracs))
           ranged)
    in
    let indexed =
      "id"
      :: List.filter_map
           (fun (c, b) -> if b then Some c else None)
           (List.combine data_cols extra_indexed)
    in
    return
      {
        Rschema.tname = name;
        key = "id";
        columns = key :: data;
        fks = [];
        indexed;
        card;
      })

let gen_catalog =
  QCheck2.Gen.(
    let* n = int_range 2 5 in
    let+ tables =
      flatten_l (List.init n (fun i -> gen_table (Printf.sprintf "t%d" i)))
    in
    { Rschema.tables })

let gen_cmp =
  QCheck2.Gen.oneofl
    Logical.[ C_eq; C_eq; C_eq; C_ne; C_lt; C_le; C_gt; C_ge ]

let gen_col alias = QCheck2.Gen.(map (fun c -> (alias, c)) (oneofl data_cols))

(* a block over [nrels] aliases: mostly a connected join graph (each
   alias after the first joins some earlier alias with probability
   ~7/8, so disconnected cross-product fallbacks are exercised too),
   plus a few local constant predicates and stray column-column
   comparisons *)
let gen_int_const =
  QCheck2.Gen.map (fun v -> Rtype.V_int v) (QCheck2.Gen.int_range 0 100)

let gen_block ?(const = gen_int_const) (cat : Rschema.t) nrels =
  QCheck2.Gen.(
    let tnames = List.map (fun (t : Rschema.table) -> t.tname) cat.tables in
    let aliases = List.init nrels (fun i -> Printf.sprintf "r%d" i) in
    let* tabs = list_repeat nrels (oneofl tnames) in
    let relations =
      List.map2 (fun alias table -> { Logical.alias; table }) aliases tabs
    in
    let* joins =
      flatten_l
        (List.filteri
           (fun i _ -> i > 0)
           (List.mapi
              (fun i a ->
                let* connectp = int_range 0 7 in
                if connectp = 0 && i > 0 then return []
                else
                  let* j = int_range 0 (max 0 (i - 1)) in
                  let* lhs = gen_col (List.nth aliases j) in
                  let* rc = gen_col a in
                  let* cmp = gen_cmp in
                  return [ { Logical.cmp; lhs; rhs = Logical.O_col rc } ])
              aliases))
    in
    let* nlocal = int_range 0 3 in
    let* locals =
      list_repeat nlocal
        (let* a = oneofl aliases in
         let* lhs = gen_col a in
         let* cmp = gen_cmp in
         let* v = const in
         return { Logical.cmp; lhs; rhs = Logical.O_const v })
    in
    let* nout = int_range 0 3 in
    let* out =
      list_repeat nout
        (let* a = oneofl aliases in
         gen_col a)
    in
    return { Logical.relations; preds = List.concat joins @ locals; out })

let gen_case =
  QCheck2.Gen.(
    let* cat = gen_catalog in
    let* nrels = int_range 2 8 in
    let+ block = gen_block cat nrels in
    (cat, block))

(* two to four blocks of one query, mostly of 2-6 relations; one block
   in four has 7 to dp_limit + 3, and one query in three repeats one of
   its blocks last, so the cache's lookups and registrations also meet
   the DP's largest masks and the greedy path *)
let gen_shared_case =
  QCheck2.Gen.(
    let* cat = gen_catalog in
    let* sizes =
      list_size (int_range 2 4)
        (frequency
           [ (3, int_range 2 6); (1, int_range 7 (Optimizer.dp_limit + 3)) ])
    in
    let* blocks = flatten_l (List.map (gen_block cat) sizes) in
    let* repeat = int_range 0 2 and* k = int_bound (List.length blocks - 1) in
    return (cat, if repeat = 0 then blocks @ [ List.nth blocks k ] else blocks))

(* the largest masks the DP enumerates (9 and 10 relations), and the
   greedy fallback just beyond dp_limit on random join graphs *)
let gen_large_case =
  QCheck2.Gen.(
    let* cat = gen_catalog in
    let* nrels = int_range 9 (Optimizer.dp_limit + 3) in
    let+ block = gen_block cat nrels in
    (cat, block))

(* Scan signatures embed constant text.  Quotes and the separators of
   the reference's signature strings ('|' between scan parts, ';'
   between join children, ',' between conditions) must not make two
   different sub-plans look alike, nor hide equal ones; a small pool
   makes repeats across blocks, and so cache hits, likely. *)
let gen_text_const =
  QCheck2.Gen.oneofl
    Rtype.
      [
        V_string "it's";
        V_string "a|b";
        V_string "x;y";
        V_string "p,q";
        V_string "';|,";
        V_string "t0|scan";
        V_string "join(";
        V_string "";
        V_int 7;
      ]

let gen_text_shared_case =
  QCheck2.Gen.(
    let* cat = gen_catalog in
    let* sizes = list_size (int_range 2 4) (int_range 1 5) in
    let+ blocks =
      flatten_l (List.map (gen_block ~const:gen_text_const cat) sizes)
    in
    (cat, blocks))

(* an update whose writes locate rows through a small pool of blocks,
   so later writes hit the update's shared cache *)
let gen_update_case =
  QCheck2.Gen.(
    let* cat = gen_catalog in
    let tnames = List.map (fun (t : Rschema.table) -> t.tname) cat.tables in
    let* sizes = list_size (int_range 1 3) (int_range 1 5) in
    let* pool =
      flatten_l (List.map (gen_block ~const:gen_text_const cat) sizes)
    in
    let* nwrites = int_range 1 5 in
    let+ writes =
      list_repeat nwrites
        (let* w_table = oneofl tnames in
         let* w_kind = oneofl Logical.[ W_insert; W_delete; W_update ] in
         let* w_locate = oneofl (None :: List.map Option.some pool) in
         let+ w_per_row = oneofl [ 1.; 2.5; 40. ] in
         { Logical.w_table; w_kind; w_locate; w_per_row })
    in
    (cat, { Logical.uname = "u"; writes }))

let print_case (cat, block) =
  Format.asprintf "%a@.%a" Rschema.pp cat Logical.pp_block block

let print_shared_case (cat, blocks) =
  Format.asprintf "%a@.%a" Rschema.pp cat
    (Format.pp_print_list Logical.pp_block)
    blocks

let print_update_case (cat, u) =
  Format.asprintf "%a@.%a" Rschema.pp cat Logical.pp_update u

(* ---------- properties ---------- *)

let prop_block_identical =
  QCheck2.Test.make ~name:"optimize_block bit-identical to reference"
    ~count:300 ~print:print_case gen_case (fun (cat, block) ->
      let fast = Optimizer.optimize_block ~params cat block in
      let ref_ = Optimizer_reference.optimize_block ~params cat block in
      same_result "block" fast ref_;
      true)

(* the blocks of one query flow through a shared signature cache; the
   interned signatures must hit and miss exactly like the reference's
   recursive plan_signature strings *)
let shared_sequence_identical (cat, blocks) =
  let shared_fast = Optimizer.shared () in
  let shared_ref = Hashtbl.create 16 in
  List.iteri
    (fun i block ->
      let fast =
        Optimizer.optimize_block ~params ~shared:shared_fast cat block
      in
      let ref_ =
        Optimizer_reference.optimize_block ~params ~shared:shared_ref cat block
      in
      same_result (Printf.sprintf "shared block %d" i) fast ref_)
    blocks;
  true

let prop_shared_identical =
  QCheck2.Test.make ~name:"shared-cache sequence bit-identical to reference"
    ~count:150 ~print:print_shared_case gen_shared_case
    shared_sequence_identical

let prop_large_block_identical =
  QCheck2.Test.make ~name:"9-13 relation blocks bit-identical to reference"
    ~count:50 ~print:print_case gen_large_case (fun (cat, block) ->
      same_result "large block"
        (Optimizer.optimize_block ~params cat block)
        (Optimizer_reference.optimize_block ~params cat block);
      true)

let prop_text_shared_identical =
  QCheck2.Test.make
    ~name:"shared cache with string constants bit-identical to reference"
    ~count:150 ~print:print_shared_case gen_text_shared_case
    shared_sequence_identical

let prop_write_identical =
  QCheck2.Test.make ~name:"write_cost bit-identical to reference" ~count:100
    ~print:print_update_case gen_update_case (fun (cat, u) ->
      same_float "write cost"
        (Optimizer.write_cost ~params cat u)
        (Optimizer_reference.write_cost ~params cat u);
      true)

let prop_query_identical =
  QCheck2.Test.make ~name:"query_cost total bit-identical to reference"
    ~count:100 ~print:print_shared_case gen_shared_case (fun (cat, blocks) ->
      let q = { Logical.qname = "q"; blocks } in
      same_float "query total"
        (Optimizer.query_scalar_cost ~params cat q)
        (Optimizer_reference.query_scalar_cost ~params cat q);
      true)

(* ---------- deterministic greedy fallback ---------- *)

(* a 12-relation chain exceeds dp_limit (10), forcing both
   implementations through their greedy paths *)
let greedy_fallback () =
  let n = 12 in
  let table i =
    let col cname distinct =
      {
        Rschema.cname;
        ctype = Rtype.R_int;
        nullable = false;
        stats =
          {
            Rschema.distinct;
            null_frac = 0.;
            v_min = Some 0;
            v_max = Some 1000;
            avg_width = 8.;
          };
      }
    in
    let card = float_of_int (100 * (i + 1)) in
    {
      Rschema.tname = Printf.sprintf "t%d" i;
      key = "id";
      columns = [ col "id" card; col "a" (card /. 2.); col "b" 10. ];
      fks = [];
      indexed = (if i mod 2 = 0 then [ "id"; "a" ] else [ "id" ]);
      card;
    }
  in
  let cat = { Rschema.tables = List.init n table } in
  let aliases = List.init n (fun i -> Printf.sprintf "r%d" i) in
  let block =
    {
      Logical.relations =
        List.mapi (fun i a -> { Logical.alias = a; table = Printf.sprintf "t%d" i }) aliases;
      preds =
        List.init (n - 1) (fun i ->
            Logical.eq_col
              (Printf.sprintf "r%d" i, "a")
              (Printf.sprintf "r%d" (i + 1), "b"))
        @ [
            {
              Logical.cmp = Logical.C_eq;
              lhs = ("r0", "b");
              rhs = Logical.O_const (Rtype.V_int 3);
            };
          ];
      out = [ ("r0", "a"); (Printf.sprintf "r%d" (n - 1), "b") ];
    }
  in
  let fast = Optimizer.optimize_block ~params cat block in
  let ref_ = Optimizer_reference.optimize_block ~params cat block in
  same_result "greedy chain" fast ref_;
  let shared_fast = Optimizer.shared () and shared_ref = Hashtbl.create 16 in
  let fast2 = Optimizer.optimize_block ~params ~shared:shared_fast cat block in
  let ref2 =
    Optimizer_reference.optimize_block ~params ~shared:shared_ref cat block
  in
  same_result "greedy chain, first shared pass" fast2 ref2;
  (* second pass hits the populated caches *)
  let fast3 = Optimizer.optimize_block ~params ~shared:shared_fast cat block in
  let ref3 =
    Optimizer_reference.optimize_block ~params ~shared:shared_ref cat block
  in
  same_result "greedy chain, cached shared pass" fast3 ref3

(* ---------- the catalogs the search visits ---------- *)

(* the all-inlined and normalized IMDB configurations and every
   one-step neighbour of each, with all twenty Appendix C queries *)
let imdb_catalogs () =
  let schema = Annotate.schema Imdb.Stats.full Imdb.Schema.schema in
  let configs =
    List.concat_map
      (fun start -> start :: List.map snd (Space.neighbors start))
      [ Init.all_inlined schema; Init.normalize schema ]
  in
  Alcotest.(check int) "configurations" 48 (List.length configs);
  List.iteri
    (fun ci config ->
      let m =
        match Mapping.of_pschema config with
        | Ok m -> m
        | Error es -> Alcotest.failf "config %d: %s" ci (String.concat "; " es)
      in
      let cat = m.Mapping.catalog in
      List.iteri
        (fun qi xq ->
          let what = Printf.sprintf "config %d Q%d" ci (qi + 1) in
          let q = Xq_translate.translate m xq in
          let fast, ft = Optimizer.query_cost ~params cat q in
          let refr, rt = Optimizer_reference.query_cost ~params cat q in
          same_float (what ^ " total") ft rt;
          Alcotest.(check int)
            (what ^ " blocks") (List.length refr) (List.length fast);
          List.iteri
            (fun bi (f, r) ->
              same_result (Printf.sprintf "%s block %d" what bi) f r)
            (List.combine fast refr))
        Imdb.Queries.all)
    configs

(* ---------- the cost-only finish ---------- *)

(* [query_scalar_cost] builds no plan: each block but the last
   registers its chosen sub-plans for the blocks after it, as
   [optimize_block] does, so the total must be [query_cost]'s *)
let scalar_is_query_total (cat, blocks) =
  let q = { Logical.qname = "q"; blocks } in
  same_float "scalar cost"
    (Optimizer.query_scalar_cost ~params cat q)
    (snd (Optimizer.query_cost ~params cat q));
  true

let prop_scalar_shared =
  QCheck2.Test.make ~name:"query_scalar_cost is query_cost's total"
    ~count:150 ~print:print_shared_case gen_shared_case scalar_is_query_total

let prop_scalar_text_shared =
  QCheck2.Test.make
    ~name:"query_scalar_cost is query_cost's total, string constants"
    ~count:150 ~print:print_shared_case gen_text_shared_case
    scalar_is_query_total

let imdb_scalar_costs () =
  let schema = Annotate.schema Imdb.Stats.full Imdb.Schema.schema in
  let configs =
    List.concat_map
      (fun start -> start :: List.map snd (Space.neighbors start))
      [ Init.all_inlined schema; Init.normalize schema ]
  in
  Alcotest.(check int) "configurations" 48 (List.length configs);
  List.iteri
    (fun ci config ->
      match Mapping.of_pschema config with
      | Error es -> Alcotest.failf "config %d: %s" ci (String.concat "; " es)
      | Ok m ->
          List.iteri
            (fun qi xq ->
              let cat = m.Mapping.catalog and q = Xq_translate.translate m xq in
              same_float
                (Printf.sprintf "config %d Q%d" ci (qi + 1))
                (Optimizer.query_scalar_cost ~params cat q)
                (snd (Optimizer.query_cost ~params cat q)))
            Imdb.Queries.all)
    configs

(* An ill-formed block raises [Logical.block_wellformed]'s errors in
   order, then [Estimate.env]'s unknown table, as the frozen reference
   raises them, through every entry point. *)
let ill_formed_messages () =
  let column cname =
    {
      Rschema.cname;
      ctype = Rtype.R_int;
      nullable = false;
      stats =
        {
          Rschema.distinct = 10.;
          null_frac = 0.;
          v_min = None;
          v_max = None;
          avg_width = 4.;
        };
    }
  in
  let table tname =
    {
      Rschema.tname;
      key = "id";
      columns = [ column "id"; column "a" ];
      fks = [];
      indexed = [ "id" ];
      card = 10.;
    }
  in
  let cat = { Rschema.tables = [ table "t0"; table "t1" ] } in
  let rel alias table = { Logical.alias; table } in
  let block ?(preds = []) ?(out = []) relations =
    { Logical.relations; preds; out }
  in
  let message f =
    match f () with _ -> None | exception Invalid_argument m -> Some m
  in
  let raises what expected b =
    let check entry f =
      Alcotest.(check (option string)) (what ^ ", " ^ entry) (Some expected)
        (message f)
    in
    check "reference" (fun () ->
        Optimizer_reference.optimize_block ~params cat b);
    check "optimize_block" (fun () -> Optimizer.optimize_block ~params cat b);
    check "query_cost" (fun () ->
        Optimizer.query_cost ~params cat
          { Logical.qname = "q"; blocks = [ b ] });
    check "query_scalar_cost" (fun () ->
        Optimizer.query_scalar_cost ~params cat
          { Logical.qname = "q"; blocks = [ b ] });
    check "write_cost" (fun () ->
        Optimizer.write_cost ~params cat
          {
            Logical.uname = "u";
            writes =
              [
                {
                  Logical.w_table = "t0";
                  w_kind = Logical.W_delete;
                  w_locate = Some b;
                  w_per_row = 1.;
                };
              ];
          })
  in
  raises "no relations" "optimize_block: no relations" (block []);
  raises "unknown alias" "optimize_block: unknown alias x"
    (block ~out:[ ("x", "a") ] [ rel "r0" "t0" ]);
  raises "unknown table, referenced" "optimize_block: unknown table nope"
    (block ~out:[ ("r1", "a") ] [ rel "r0" "t0"; rel "r1" "nope" ]);
  raises "unknown table, unreferenced" "Estimate.env: unknown table nope"
    (block
       ~out:[ ("r0", "a") ]
       [ rel "r0" "t0"; rel "r1" "nope"; rel "r2" "gone" ]);
  raises "unknown column" "optimize_block: no column t1.zz"
    (block
       ~preds:[ Logical.eq_col ("r0", "a") ("r1", "zz") ]
       [ rel "r0" "t0"; rel "r1" "t1" ]);
  raises "duplicate aliases" "optimize_block: duplicate aliases"
    (block ~out:[ ("r0", "a") ] [ rel "r0" "t0"; rel "r0" "t1" ]);
  raises "every error, in order"
    "optimize_block: duplicate aliases; unknown alias x; no column t0.zz; \
     unknown table nope"
    (block
       ~preds:
         [
           Logical.eq_const ("x", "a") (Rtype.V_int 1);
           Logical.eq_col ("r0", "zz") ("r0", "a");
         ]
       ~out:[ ("r2", "a") ]
       [ rel "r0" "t0"; rel "r0" "t1"; rel "r2" "nope" ])

let suite =
  [
    QCheck_alcotest.to_alcotest prop_block_identical;
    QCheck_alcotest.to_alcotest prop_shared_identical;
    QCheck_alcotest.to_alcotest prop_query_identical;
    QCheck_alcotest.to_alcotest prop_large_block_identical;
    QCheck_alcotest.to_alcotest prop_text_shared_identical;
    QCheck_alcotest.to_alcotest prop_write_identical;
    Alcotest.test_case "greedy fallback beyond dp_limit" `Quick greedy_fallback;
    Alcotest.test_case "IMDB configurations and neighbours match reference"
      `Quick imdb_catalogs;
    QCheck_alcotest.to_alcotest prop_scalar_shared;
    QCheck_alcotest.to_alcotest prop_scalar_text_shared;
    Alcotest.test_case "query_scalar_cost is query_cost's total on IMDB"
      `Quick imdb_scalar_costs;
    Alcotest.test_case "ill-formed blocks raise the same texts" `Quick
      ill_formed_messages;
  ]
