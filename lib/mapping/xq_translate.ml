open Legodb_xquery
open Legodb_optimizer
open Legodb_relational

exception Untranslatable of string

(* bound on the cross-product of storage alternatives explored per
   query: a safety valve, far above anything the workloads need *)
let max_alternatives = 256

(* ------------------------------------------------------------------ *)
(* block-building context                                              *)
(* ------------------------------------------------------------------ *)

type bctx = {
  rels : Logical.relation list;  (* reverse order *)
  preds : Logical.pred list;  (* reverse order *)
  cache : ((string * string list) * (string * string)) list;
      (* (anchor alias, hops) -> (alias, type) of the chain's end *)
  counter : int;
}

let empty_bctx = { rels = []; preds = []; cache = []; counter = 0 }

let add_rel bctx alias table =
  { bctx with rels = { Logical.alias; table } :: bctx.rels }

let add_pred bctx p =
  if List.exists (fun q -> q = p) bctx.preds then bctx
  else { bctx with preds = p :: bctx.preds }

(* Realize a chain of type hops starting from an optional anchor
   (alias, type); returns the (alias, type) of the chain's end.  Chains
   are cached per (anchor, hops-prefix) so the same path is joined only
   once per block. *)
let realize_chain bctx ~anchor ~hint hops =
  let anchor_alias = match anchor with Some (a, _) -> a | None -> "" in
  let rec go bctx parent done_hops remaining =
    match remaining with
    | [] -> (
        match parent with
        | Some at -> (bctx, at)
        | None -> invalid_arg "realize_chain: empty chain with no anchor")
    | ty :: rest -> (
        let key = (anchor_alias, done_hops @ [ ty ]) in
        match List.assoc_opt key bctx.cache with
        | Some at -> go bctx (Some at) (done_hops @ [ ty ]) rest
        | None ->
            let taken a =
              List.exists
                (fun (r : Logical.relation) -> String.equal r.alias a)
                bctx.rels
            in
            let alias =
              if rest = [] && hint <> "" && not (taken hint) then hint
              else
                Printf.sprintf "%s_%s%d"
                  (if hint = "" then "t" else hint)
                  ty bctx.counter
            in
            let bctx = { bctx with counter = bctx.counter + 1 } in
            let bctx = add_rel bctx alias ty in
            let bctx =
              match parent with
              | None -> bctx
              | Some (palias, pty) ->
                  add_pred bctx
                    (Logical.eq_col
                       (alias, Naming.fk_col pty)
                       (palias, Naming.key_col pty))
            in
            let bctx =
              { bctx with cache = (key, (alias, ty)) :: bctx.cache }
            in
            go bctx (Some (alias, ty)) (done_hops @ [ ty ]) rest)
  in
  go bctx anchor [] hops

(* ------------------------------------------------------------------ *)
(* variable resolution                                                 *)
(* ------------------------------------------------------------------ *)

type vkind =
  | V_elem of Navigate.place
  | V_scalar of string  (* column name; table is the alias's *)

type vres = { v_alias : string; v_ty : string; v_kind : vkind }


let lookup_var env v =
  match List.assoc_opt v env with
  | Some r -> r
  | None -> raise (Untranslatable (Printf.sprintf "unbound variable $%s" v))

(* Resolve a document-rooted path to storage targets. *)
let resolve_doc m path =
  match path with
  | [] -> raise (Untranslatable "empty document path")
  | first :: rest ->
      List.concat_map
        (function
          | Navigate.F_elem { hops; place } ->
              List.map
                (function
                  | Navigate.F_elem f ->
                      Navigate.F_elem { f with hops = hops @ f.hops }
                  | Navigate.F_column f ->
                      Navigate.F_column { f with hops = hops @ f.hops }
                  | Navigate.F_wild f ->
                      Navigate.F_wild { f with hops = hops @ f.hops })
                (Navigate.navigate_path m place rest)
          | found -> if rest = [] then [ found ] else [])
        (Navigate.enter_root m first)

let resolve_from m env (v, path) =
  let r = lookup_var env v in
  match r.v_kind with
  | V_elem place -> (r, Navigate.navigate_path m place path)
  | V_scalar _ ->
      if path = [] then (r, [])
      else
        raise
          (Untranslatable
             (Printf.sprintf "path below scalar variable $%s" v))

(* Turn one [found] into context additions and a var resolution. *)
let realize_found bctx ~anchor ~hint found =
  match found with
  | Navigate.F_elem { hops; place } ->
      let bctx, (alias, ty) = realize_chain bctx ~anchor ~hint hops in
      ( bctx,
        { v_alias = alias; v_ty = ty; v_kind = V_elem place } )
  | Navigate.F_column { hops; ty = _; column } ->
      let bctx, (alias, ty) = realize_chain bctx ~anchor ~hint hops in
      (bctx, { v_alias = alias; v_ty = ty; v_kind = V_scalar column })
  | Navigate.F_wild { hops; ty = _; tilde; data; tag } ->
      let bctx, (alias, ty) = realize_chain bctx ~anchor ~hint hops in
      (* the wildcard step constrains the tag column *)
      let bctx =
        add_pred bctx
          (Logical.eq_const (alias, tilde) (Rtype.V_string tag))
      in
      (bctx, { v_alias = alias; v_ty = ty; v_kind = V_scalar data })

let cap_alternatives what l =
  if List.length l > max_alternatives then
    raise
      (Untranslatable
         (Printf.sprintf "too many storage alternatives for %s" what))
  else l

(* All (env, bctx) alternatives after resolving the bindings. *)
let resolve_bindings m (env, bctx) bindings =
  List.fold_left
    (fun alts (v, source) ->
      cap_alternatives ("binding $" ^ v)
        (List.concat_map
           (fun (env, bctx) ->
             let anchor, founds =
               match source with
               | Xq_ast.Doc path -> (None, resolve_doc m path)
               | Xq_ast.Var_path (w, path) ->
                   let r, founds = resolve_from m env (w, path) in
                   (Some (r.v_alias, r.v_ty), founds)
             in
             List.map
               (fun found ->
                 let bctx, res = realize_found bctx ~anchor ~hint:v found in
                 ((v, res) :: env, bctx))
               founds)
           alts))
    [ (env, bctx) ]
    bindings

(* ------------------------------------------------------------------ *)
(* predicates                                                          *)
(* ------------------------------------------------------------------ *)

(* Column targets of a path used as a value (predicate side or scalar
   return).  Each target may extend the context. *)
let value_targets m bctx env (v, path) ~hint =
  let r, founds =
    if path = [] then (lookup_var env v, [])
    else resolve_from m env (v, path)
  in
  match (r.v_kind, path) with
  | V_scalar col, [] -> [ (bctx, (r.v_alias, col)) ]
  | V_elem _, [] -> []
  | _, _ ->
      List.filter_map
        (fun found ->
          match found with
          | Navigate.F_column _ | Navigate.F_wild _ ->
              let anchor = Some (r.v_alias, r.v_ty) in
              let bctx, res = realize_found bctx ~anchor ~hint found in
              (match res.v_kind with
              | V_scalar col -> Some (bctx, (res.v_alias, col))
              | V_elem _ -> None)
          | Navigate.F_elem _ -> None)
        founds

let const_value = function
  | Xq_ast.C_int n -> Rtype.V_int n
  | Xq_ast.C_string s -> Rtype.V_string s

let apply_pred m alts (p : Xq_ast.pred) =
  cap_alternatives "predicate"
    (List.concat_map
       (fun (env, bctx) ->
         let lhs_targets =
           value_targets m bctx env p.left ~hint:(fst p.left ^ "_p")
         in
         List.concat_map
           (fun (bctx, lcol) ->
             match p.right with
             | Xq_ast.O_const c ->
                 [ (env, add_pred bctx (Logical.eq_const lcol (const_value c))) ]
             | Xq_ast.O_param k ->
                 let p = { Logical.cmp = C_eq; lhs = lcol; rhs = O_param k } in
                 [ (env, add_pred bctx p) ]
             | Xq_ast.O_path (w, path) ->
                 List.map
                   (fun (bctx, rcol) ->
                     (env, add_pred bctx (Logical.eq_col lcol rcol)))
                   (value_targets m bctx env (w, path) ~hint:(w ^ "_p")))
           lhs_targets)
       alts)

(* ------------------------------------------------------------------ *)
(* return clause                                                       *)
(* ------------------------------------------------------------------ *)

let table_out m alias ty =
  List.map (fun c -> (alias, c)) (Mapping.table_columns m ty)

let finish_block bctx out =
  {
    Logical.relations = List.rev bctx.rels;
    preds = List.rev bctx.preds;
    out;
  }

(* Publish the subtree rooted at (alias, ty, place): the element's own
   columns go into the main projection; each descendant table becomes
   an extra block. *)
let publish_blocks m bctx alias ty place =
  let own = table_out m alias ty in
  let blocks =
    List.map
      (fun hops ->
        let bctx, (dalias, dty) =
          realize_chain bctx ~anchor:(Some (alias, ty)) ~hint:"" hops
        in
        finish_block bctx (table_out m dalias dty))
      (Navigate.descendant_tables m place)
  in
  (own, blocks)

let rec rets_blocks m env bctx rets : Logical.block list =
  let rec flatten r =
    match r with Xq_ast.R_elem (_, rs) -> List.concat_map flatten rs | r -> [ r ]
  in
  let rets = List.concat_map flatten rets in
  let process (bctx, out, extra) ret =
    match ret with
    | Xq_ast.R_elem _ -> (bctx, out, extra) (* flattened away *)
    | Xq_ast.R_var v -> (
        let r = lookup_var env v in
        match r.v_kind with
        | V_scalar col -> (bctx, out @ [ (r.v_alias, col) ], extra)
        | V_elem place ->
            let own, blocks = publish_blocks m bctx r.v_alias r.v_ty place in
            (bctx, out @ own, extra @ blocks))
    | Xq_ast.R_path (v, path) ->
        let r, founds = resolve_from m env (v, path) in
        List.fold_left
          (fun (bctx, out, extra) found ->
            match found with
            | Navigate.F_column _ | Navigate.F_wild _ ->
                let bctx, res =
                  realize_found bctx
                    ~anchor:(Some (r.v_alias, r.v_ty))
                    ~hint:(v ^ "_r") found
                in
                (match res.v_kind with
                | V_scalar col -> (bctx, out @ [ (res.v_alias, col) ], extra)
                | V_elem _ -> (bctx, out, extra))
            | Navigate.F_elem _ ->
                (* a non-scalar element in return position: publish it *)
                let bctx, res =
                  realize_found bctx
                    ~anchor:(Some (r.v_alias, r.v_ty))
                    ~hint:(v ^ "_r") found
                in
                (match res.v_kind with
                | V_elem place ->
                    let own, blocks =
                      publish_blocks m bctx res.v_alias res.v_ty place
                    in
                    (bctx, out @ own, extra @ blocks)
                | V_scalar col -> (bctx, out @ [ (res.v_alias, col) ], extra)))
          (bctx, out, extra) founds
    | Xq_ast.R_nested f ->
        let alts = resolve_bindings m (env, bctx) f.bindings in
        let alts = List.fold_left (apply_pred m) alts f.where in
        let blocks =
          List.concat_map
            (fun (env, bctx) -> rets_blocks m env bctx f.return)
            alts
        in
        (bctx, out, extra @ blocks)
  in
  let bctx, out, extra = List.fold_left process (bctx, [], []) rets in
  if out = [] then extra else finish_block bctx out :: extra

(* ------------------------------------------------------------------ *)
(* top level                                                           *)
(* ------------------------------------------------------------------ *)

let translate m (q : Xq_ast.t) =
  (match Xq_ast.check q with
  | Ok () -> ()
  | Error es -> raise (Untranslatable (String.concat "; " es)));
  let alts = resolve_bindings m ([], empty_bctx) q.body.bindings in
  if alts = [] then
    raise
      (Untranslatable
         (Printf.sprintf "no storage location matches the bindings of %s" q.name));
  let alts = List.fold_left (apply_pred m) alts q.body.where in
  let blocks =
    List.concat_map (fun (env, bctx) -> rets_blocks m env bctx q.body.return) alts
  in
  { Logical.qname = q.name; blocks }

module TSet = Set.Make (String)

let block_tables acc (b : Logical.block) =
  List.fold_left
    (fun acc (r : Logical.relation) -> TSet.add r.Logical.table acc)
    acc b.Logical.relations

(* the query's read set: its optimizer cost depends only on these
   tables, which is what lets the cost engine reuse a cached cost when
   none of them changed *)
let query_tables (q : Logical.query) =
  TSet.elements (List.fold_left block_tables TSet.empty q.Logical.blocks)

let translate_with_tables m q =
  let lq = translate m q in
  (lq, query_tables lq)

let equality_columns queries =
  let add acc (table, col) =
    if List.mem (table, col) acc then acc else (table, col) :: acc
  in
  List.fold_left
    (fun acc (q : Logical.query) ->
      List.fold_left
        (fun acc (b : Logical.block) ->
          List.fold_left
            (fun acc (p : Logical.pred) ->
              match (p.cmp, p.rhs) with
              | Logical.C_eq, (Logical.O_const _ | Logical.O_param _) ->
                  let alias = fst p.lhs in
                  (match
                     List.find_opt
                       (fun (r : Logical.relation) ->
                         String.equal r.alias alias)
                       b.relations
                   with
                  | Some r -> add acc (r.table, snd p.lhs)
                  | None -> acc)
              | _ -> acc)
            acc b.preds)
        acc q.blocks)
    [] queries
  |> List.rev

(* ------------------------------------------------------------------ *)
(* update translation (the future-work extension of Section 7)         *)
(* ------------------------------------------------------------------ *)

let last_of chain = List.nth chain (List.length chain - 1)

(* blocks locating the element a DELETE/SET affects, one per storage
   alternative, projecting the target table's key *)
let locate_alternatives m (body : Xq_ast.flwr) var =
  let alts = resolve_bindings m ([], empty_bctx) body.bindings in
  let alts = List.fold_left (apply_pred m) alts body.where in
  List.filter_map
    (fun (env, bctx) ->
      match List.assoc_opt var env with
      | Some r ->
          Some
            ( finish_block bctx [ (r.v_alias, Naming.key_col r.v_ty) ],
              r.v_alias,
              r.v_ty )
      | None -> None)
    alts

let cascade m ty place kind locate =
  List.map
    (fun chain ->
      let dty = last_of chain in
      {
        Logical.w_table = dty;
        w_kind = kind;
        w_locate = locate;
        w_per_row = Mapping.card m dty /. Float.max 1. (Mapping.card m ty);
      })
    (Navigate.descendant_tables m place)

let translate_update m (u : Xq_ast.update) : Logical.update =
  (match Xq_ast.check_update u with
  | Ok () -> ()
  | Error es -> raise (Untranslatable (String.concat "; " es)));
  match u with
  | Xq_ast.U_insert { name; target } ->
      let elems =
        List.filter_map
          (function
            | Navigate.F_elem { hops; place } when hops <> [] ->
                Some (last_of hops, place)
            | _ -> None)
          (resolve_doc m target)
      in
      if elems = [] then
        raise (Untranslatable (Printf.sprintf "%s: no element storage target" name));
      (* an insert lands in exactly one of the storage alternatives:
         average the cost over them *)
      let n = float_of_int (List.length elems) in
      let writes =
        List.concat_map
          (fun (ty, place) ->
            {
              Logical.w_table = ty;
              w_kind = Logical.W_insert;
              w_locate = None;
              w_per_row = 1. /. n;
            }
            :: List.map
                 (fun w -> { w with Logical.w_per_row = w.Logical.w_per_row /. n })
                 (cascade m ty place Logical.W_insert None))
          elems
      in
      { Logical.uname = name; writes }
  | Xq_ast.U_delete { name; body; target } ->
      let alts = locate_alternatives m body target in
      if alts = [] then
        raise (Untranslatable (Printf.sprintf "%s: nothing to delete" name));
      let writes =
        List.concat_map
          (fun (block, _, ty) ->
            let place = { Navigate.ty; prefix = [] } in
            {
              Logical.w_table = ty;
              w_kind = Logical.W_delete;
              w_locate = Some block;
              w_per_row = 1.;
            }
            :: cascade m ty place Logical.W_delete (Some block))
          alts
      in
      { Logical.uname = name; writes }
  | Xq_ast.U_set { name; body; target = v, path; value = _ } ->
      let alts = resolve_bindings m ([], empty_bctx) body.bindings in
      let alts = List.fold_left (apply_pred m) alts body.where in
      let writes =
        List.concat_map
          (fun (env, bctx) ->
            List.map
              (fun (bctx, (alias, col)) ->
                let table =
                  match
                    List.find_opt
                      (fun (r : Logical.relation) -> String.equal r.alias alias)
                      bctx.rels
                  with
                  | Some r -> r.Logical.table
                  | None -> raise (Untranslatable (name ^ ": lost the target table"))
                in
                {
                  Logical.w_table = table;
                  w_kind = Logical.W_update;
                  w_locate = Some (finish_block bctx [ (alias, col) ]);
                  w_per_row = 1.;
                })
              (value_targets m bctx env (v, path) ~hint:(v ^ "_u")))
          alts
      in
      if writes = [] then
        raise (Untranslatable (Printf.sprintf "%s: target path not found" name));
      { Logical.uname = name; writes }

(* written tables plus the relations of every locating block: the
   invalidation set for cached write costs *)
let update_tables (u : Logical.update) =
  TSet.elements
    (List.fold_left
       (fun acc (w : Logical.write) ->
         let acc = TSet.add w.Logical.w_table acc in
         match w.Logical.w_locate with
         | Some b -> block_tables acc b
         | None -> acc)
       TSet.empty u.Logical.writes)

let translate_update_with_tables m u =
  let lu = translate_update m u in
  (lu, update_tables lu)
