(* Statement templates: a plan compiled once per template and bound at
   execution must answer, plan and cost exactly like the statement's
   own compile — on every configuration, for any constants, and across
   a publish. *)

open Legodb
open Test_util

(* the in-memory weights the serving benchmarks use: equality
   predicates on indexed columns compile to index probes *)
let mem_params =
  { Cost.default_params with Cost.seek_weight = 0.1; read_weight = 0.1 }

(* the 20 Appendix C queries, the four serving templates (show by
   year, actor by name, actor with the shows they played in, show by
   title), and two with several slots: two in one clause (the second,
   on the more selective column, is the one an index probe reads), and
   an outer one plus a nested one *)
let statements =
  lazy
    (Imdb.Queries.all
    @ List.mapi
        (fun i text -> Xq_parse.parse ~name:(Printf.sprintf "serving%d" i) text)
        [
          "FOR $v IN document(\"imdb\")/imdb/show WHERE $v/year = 1990 RETURN \
           $v/title, $v/year, $v/type";
          "FOR $a IN document(\"imdb\")/imdb/actor WHERE $a/name = \"x\" \
           RETURN $a/name";
          "FOR $i IN document(\"imdb\")/imdb $a in $i/actor, $m1 in $a/played \
           WHERE $a/name = \"x\" RETURN $a/name, $m1/title, $m1/year";
          "FOR $v IN document(\"imdb\")/imdb/show WHERE $v/title = \"x\" \
           RETURN $v/title, $v/year";
          "FOR $v IN document(\"imdb\")/imdb/show WHERE $v/year = 1990 AND \
           $v/title = \"x\" RETURN $v/title";
          "FOR $v IN document(\"imdb\")/imdb/show WHERE $v/title = \"x\" \
           RETURN $v/title FOR $e IN $v/episodes WHERE $e/guest_director = \
           \"x\" RETURN $e/guest_director";
        ])

(* all-inlined, the normalized configuration, and every one-step
   union distribution of it: a distributed union splits a type into
   partitions, so one slot lands in several blocks *)
let configurations =
  lazy
    (let doc = Lazy.force small_imdb_doc in
     let annotated =
       Annotate.schema (Collector.collect doc) Imdb.Schema.schema
     in
     let ps0 = Init.normalize annotated in
     let dists = Space.neighbors ~kinds:[ Space.K_union_dist ] ps0 in
     if dists = [] then failwith "no union to distribute";
     ("all-inlined", Init.all_inlined annotated)
     :: ("normalized", ps0)
     :: List.map
          (fun (step, s) -> (Format.asprintf "%a" Space.pp_step step, s))
          dists)

(* a document to append before the publish: same generator, other seed *)
let extra_doc =
  lazy (Imdb.Gen.generate { (Imdb.Gen.scaled 0.001) with Imdb.Gen.seed = 11 })

(* ------------------------------------------------------------------ *)
(* substituting slots                                                  *)
(* ------------------------------------------------------------------ *)

let rec bind_flwr consts (f : Xq_ast.flwr) =
  let pred (p : Xq_ast.pred) =
    match p.right with
    | Xq_ast.O_param k -> { p with right = Xq_ast.O_const consts.(k) }
    | Xq_ast.O_const _ | Xq_ast.O_path _ -> p
  in
  let rec ret = function
    | Xq_ast.R_nested f -> Xq_ast.R_nested (bind_flwr consts f)
    | Xq_ast.R_elem (tag, rs) -> Xq_ast.R_elem (tag, List.map ret rs)
    | r -> r
  in
  { f with where = List.map pred f.where; return = List.map ret f.return }

let bind_pred vals (p : Logical.pred) =
  match p.rhs with
  | Logical.O_param k -> { p with rhs = Logical.O_const vals.(k) }
  | Logical.O_const _ | Logical.O_col _ -> p

let bind_block vals (b : Logical.block) =
  { b with preds = List.map (bind_pred vals) b.preds }

let rec bind_plan vals = function
  | Physical.Scan s ->
      Physical.Scan { s with filters = List.map (bind_pred vals) s.filters }
  | Physical.Join j ->
      Physical.Join
        {
          j with
          left = bind_plan vals j.left;
          right = bind_plan vals j.right;
          extra = List.map (bind_pred vals) j.extra;
        }

(* the left path of each slot, in slot order *)
let slot_paths (f : Xq_ast.flwr) =
  let rec go acc (f : Xq_ast.flwr) =
    let acc =
      List.fold_left
        (fun acc (p : Xq_ast.pred) ->
          match p.right with
          | Xq_ast.O_param k -> (k, snd p.left) :: acc
          | Xq_ast.O_const _ | Xq_ast.O_path _ -> acc)
        acc f.where
    in
    List.fold_left ret acc f.return
  and ret acc = function
    | Xq_ast.R_nested f -> go acc f
    | Xq_ast.R_elem (_, rs) -> List.fold_left ret acc rs
    | Xq_ast.R_path _ | Xq_ast.R_var _ -> acc
  in
  List.map snd (List.sort compare (go [] f))

(* ------------------------------------------------------------------ *)
(* random constants                                                    *)
(* ------------------------------------------------------------------ *)

(* every element of the document *)
let elements =
  lazy
    (let rec walk acc = function
       | Xml.Element (_, _, kids) as e -> List.fold_left walk (e :: acc) kids
       | Xml.Text _ -> acc
     in
     Array.of_list (walk [] (Lazy.force small_imdb_doc)))

(* the elements holding a value at every one of [paths], memoized *)
let holders =
  let memo = Hashtbl.create 16 in
  fun paths ->
    match Hashtbl.find_opt memo paths with
    | Some hs -> hs
    | None ->
        let hs =
          Array.of_list
            (List.filter
               (fun e ->
                 List.for_all (fun p -> Xq_eval.path_values e p <> []) paths)
               (Array.to_list (Lazy.force elements)))
        in
        Hashtbl.replace memo paths hs;
        hs

let value_at rng paths =
  let hs = holders paths in
  if hs = [||] then None
  else
    let e = hs.(Random.State.int rng (Array.length hs)) in
    Some (List.map (fun p -> List.hd (Xq_eval.path_values e p)) paths)

let const_of ?(as_int = true) v =
  match int_of_string_opt v with
  | Some n when as_int -> Xq_ast.C_int n
  | _ -> Xq_ast.C_string v

(* a constant for a slot compared with [path]: mostly a value the
   document holds there, an int-looking value as either kind, and now
   and then a value matching nothing *)
let draw_const rng path =
  match (Random.State.int rng 5, value_at rng [ path ]) with
  | 0, _ | _, None ->
      if Random.State.bool rng then Xq_ast.C_int (Random.State.int rng 3000)
      else Xq_ast.C_string "no such value"
  | _, Some vs -> const_of ~as_int:(Random.State.bool rng) (List.hd vs)

(* two statements per template: half the time all constants come from
   one element that holds every slot's path; otherwise each slot draws
   on its own, and a template with several slots then uses one value in
   its first two slots half the time *)
let draw_statements rng =
  List.concat_map
    (fun (q : Xq_ast.t) ->
      let body, _ = Xq_ast.lift q.body in
      let paths = slot_paths body in
      List.init 2 (fun i ->
          let consts =
            match value_at rng paths with
            | Some vs when Random.State.bool rng ->
                (* one element's values satisfy a conjunction of slots,
                   so a plan that probes on a later slot returns rows *)
                Array.of_list (List.map const_of vs)
            | _ ->
                let consts = Array.of_list (List.map (draw_const rng) paths) in
                if Array.length consts >= 2 && Random.State.bool rng then
                  consts.(1) <- consts.(0);
                consts
          in
          let stmt =
            {
              Xq_ast.name = Printf.sprintf "%s#%d" q.name i;
              body = bind_flwr consts body;
            }
          in
          ({ q with body }, consts, stmt)))
    (Lazy.force statements)

(* ------------------------------------------------------------------ *)
(* the differential                                                    *)
(* ------------------------------------------------------------------ *)

let bits f = Int64.bits_of_float f

let same_cost (a : Cost.t) (b : Cost.t) =
  bits a.seeks = bits b.seeks
  && bits a.pages_read = bits b.pages_read
  && bits a.pages_written = bits b.pages_written
  && bits a.cpu = bits b.cpu

let pp_consts consts =
  String.concat ", "
    (Array.to_list
       (Array.map
          (function
            | Xq_ast.C_int n -> string_of_int n
            | Xq_ast.C_string s -> Printf.sprintf "%S" s)
          consts))

(* For each block: the template's block with its slots substituted is
   the statement's block, and optimizing the template's block gives the
   statement's plan (slots substituted), estimated rows and cost bits,
   and the bound plan returns the statement plan's rows. *)
let check_plans ~what m db stmts =
  let cat = Storage.catalog db in
  List.iter
    (fun (template, consts, (stmt : Xq_ast.t)) ->
      let fail fmt =
        Alcotest.failf
          ("%s, %s [%s]: " ^^ fmt)
          what stmt.Xq_ast.name (pp_consts consts)
      in
      let vals = Array.map Xq_translate.const_value consts in
      let lt = Xq_translate.translate m template
      and ls = Xq_translate.translate m stmt in
      if List.length lt.blocks <> List.length ls.blocks then
        fail "%d template blocks, %d statement blocks"
          (List.length lt.blocks) (List.length ls.blocks);
      List.iteri
        (fun i ((bt : Logical.block), (bs : Logical.block)) ->
          if bind_block vals bt <> bs then fail "block %d differs" i;
          List.iter
            (fun params ->
              let rt = Optimizer.optimize_block ~params cat bt
              and rs = Optimizer.optimize_block ~params cat bs in
              if bind_plan vals rt.plan <> rs.plan then fail "block %d: plan" i;
              if bits rt.rows <> bits rs.rows then fail "block %d: rows" i;
              if not (same_cost rt.cost rs.cost) then fail "block %d: cost" i;
              let got = fst (Executor.run_block ~params:vals db rt.plan bt.out)
              and want = fst (Executor.run_block db rs.plan bs.out) in
              if got <> want then fail "block %d: executed rows" i)
            [ Cost.default_params; mem_params ])
        (List.combine lt.blocks ls.blocks))
    stmts

let check_answers ~what s stmts =
  List.iter
    (fun (_, consts, (stmt : Xq_ast.t)) ->
      let got = (Serve.query s stmt).Serve.rows
      and want = (Serve.query ~use_cache:false s stmt).Serve.rows in
      if got <> want then
        Alcotest.failf "%s, %s [%s]: served %d rows, use_cache:false %d" what
          stmt.Xq_ast.name (pp_consts consts) (List.length got)
          (List.length want))
    stmts

(* does some slot of some template land in more than one block? *)
let slot_in_several_blocks m stmts =
  List.exists
    (fun (template, consts, _) ->
      let lq = Xq_translate.translate m template in
      List.exists
        (fun k ->
          List.length
            (List.filter
               (fun (b : Logical.block) ->
                 List.exists
                   (fun (p : Logical.pred) -> p.rhs = Logical.O_param k)
                   b.preds)
               lq.blocks)
          > 1)
        (List.init (Array.length consts) Fun.id))
    stmts

let prop_templates =
  QCheck2.Test.make ~name:"a template's bound plan is its statement's plan"
    ~count:3 ~print:string_of_int
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let doc = Lazy.force small_imdb_doc in
      let several = ref false in
      List.iter
        (fun (cname, schema) ->
          let stmts = draw_statements rng in
          let base = mapping_of schema in
          (* index every equality column, so slots are probed as well as
             filtered *)
          let m =
            {
              base with
              Mapping.catalog =
                Rschema.add_indexes base.Mapping.catalog
                  (Xq_translate.equality_columns
                     (List.map
                        (fun (t, _, _) -> Xq_translate.translate base t)
                        stmts));
            }
          in
          if slot_in_several_blocks m stmts then several := true;
          let params =
            if Random.State.bool rng then mem_params else Cost.default_params
          in
          let s = Serve.create ~jobs:2 ~params m (Shred.shred m doc) in
          check_answers ~what:cname s stmts;
          check_plans ~what:cname m (Serve.snapshot s) stmts;
          Serve.append s (Lazy.force extra_doc);
          Serve.publish s;
          let what = cname ^ " after publish" in
          check_answers ~what s stmts;
          check_plans ~what m (Serve.snapshot s) stmts)
        (Lazy.force configurations);
      !several)

let props = [ QCheck_alcotest.to_alcotest prop_templates ]
