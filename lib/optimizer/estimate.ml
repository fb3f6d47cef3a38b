open Legodb_relational

(* Alias resolution is the innermost lookup of every estimate: the
   alias -> table binding is resolved once into arrays at [env]
   construction, and by-name lookups go through a hashtable instead of
   walking an assoc list per probe. *)
type env = {
  names : string array;  (* alias, in block-relation order *)
  tabs : Rschema.table array;  (* catalog table per alias id *)
  ids : (string, int) Hashtbl.t;  (* alias -> id *)
  preds : Logical.pred list;
}

let env cat (block : Logical.block) =
  let names =
    Array.of_list (List.map (fun (r : Logical.relation) -> r.alias) block.relations)
  in
  let tabs =
    Array.of_list
      (List.map
         (fun (r : Logical.relation) ->
           match Rschema.find_table cat r.table with
           | Some tbl -> tbl
           | None ->
               invalid_arg
                 (Printf.sprintf "Estimate.env: unknown table %s" r.table))
         block.relations)
  in
  let ids = Hashtbl.create (2 * Array.length names) in
  (* first binding wins, like the assoc list this replaces *)
  Array.iteri
    (fun i a -> if not (Hashtbl.mem ids a) then Hashtbl.add ids a i)
    names;
  { names; tabs; ids; preds = block.preds }

let alias_id env alias =
  match Hashtbl.find_opt env.ids alias with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Estimate: unknown alias %s" alias)

let table_of env alias = env.tabs.(alias_id env alias)
let column_of env (alias, cname) = Rschema.column (table_of env alias) cname

let row_floor = 1.

let range_fraction stats const ~upper =
  match (stats.Rschema.v_min, stats.Rschema.v_max, const) with
  | Some lo, Some hi, Rtype.V_int c when hi > lo ->
      let f = float_of_int (c - lo) /. float_of_int (hi - lo) in
      let f = Float.max 0. (Float.min 1. f) in
      if upper then f else 1. -. f
  | _ -> 1. /. 3.

let selectivity (p : Logical.pred) (lhs : Rschema.col_stats) rhs =
  let nn = 1. -. lhs.null_frac in
  match (p.cmp, p.rhs) with
  | Logical.C_eq, (Logical.O_const _ | Logical.O_param _) ->
      nn /. Float.max 1. lhs.distinct
  | Logical.C_ne, (Logical.O_const _ | Logical.O_param _) ->
      nn *. (1. -. (1. /. Float.max 1. lhs.distinct))
  | Logical.C_lt, Logical.O_const c | Logical.C_le, Logical.O_const c ->
      nn *. range_fraction lhs c ~upper:true
  | Logical.C_gt, Logical.O_const c | Logical.C_ge, Logical.O_const c ->
      nn *. range_fraction lhs c ~upper:false
  | ( (Logical.C_lt | Logical.C_le | Logical.C_gt | Logical.C_ge),
      Logical.O_param _ ) ->
      (* the value is unknown when planning: [range_fraction]'s default *)
      nn *. (1. /. 3.)
  | Logical.C_eq, Logical.O_col _ -> (
      match rhs with
      | Some (rhs : Rschema.col_stats) ->
          nn
          *. (1. -. rhs.null_frac)
          /. Float.max 1. (Float.max lhs.distinct rhs.distinct)
      | None -> invalid_arg "Estimate.selectivity: no right column")
  | Logical.C_ne, Logical.O_col _ -> 0.9
  | (Logical.C_lt | Logical.C_le | Logical.C_gt | Logical.C_ge), Logical.O_col _
    ->
      1. /. 3.

let pred_selectivity env (p : Logical.pred) =
  let lhs = (column_of env p.lhs).stats in
  match (p.cmp, p.rhs) with
  | Logical.C_eq, Logical.O_col rc ->
      selectivity p lhs (Some (column_of env rc).stats)
  | _ -> selectivity p lhs None

let local_preds env alias = Logical.local_preds env.preds alias

let base_rows env alias =
  let tbl = table_of env alias in
  let sel =
    List.fold_left
      (fun s p -> s *. pred_selectivity env p)
      1. (local_preds env alias)
  in
  Float.max row_floor (tbl.card *. sel)

let subset_rows env aliases =
  let inside a = List.exists (String.equal a) aliases in
  let cards =
    List.fold_left
      (fun acc a -> acc *. Float.max row_floor (table_of env a).Rschema.card)
      1. aliases
  in
  let sel =
    List.fold_left
      (fun s p ->
        if List.for_all inside (Logical.pred_aliases p) then
          s *. pred_selectivity env p
        else s)
      1. env.preds
  in
  Float.max row_floor (cards *. sel)

let output_width env out aliases =
  match out with
  | [] ->
      List.fold_left
        (fun w a -> w +. Rschema.row_width (table_of env a))
        0. aliases
  | cols ->
      List.fold_left
        (fun w c -> w +. (column_of env c).stats.avg_width)
        0. cols
