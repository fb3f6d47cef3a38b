open Legodb_relational

type col = string * string
type operand = O_const of Rtype.value | O_col of col | O_param of int
type cmp = C_eq | C_ne | C_lt | C_le | C_gt | C_ge
type pred = { cmp : cmp; lhs : col; rhs : operand }
type relation = { alias : string; table : string }

type block = {
  relations : relation list;
  preds : pred list;
  out : col list;
}

type query = { qname : string; blocks : block list }

let eq_col lhs rhs = { cmp = C_eq; lhs; rhs = O_col rhs }
let eq_const lhs v = { cmp = C_eq; lhs; rhs = O_const v }

let pred_aliases p =
  match p.rhs with
  | O_col (ra, _) -> [ fst p.lhs; ra ]
  | O_const _ | O_param _ -> [ fst p.lhs ]

let local_preds preds alias =
  List.filter
    (fun p ->
      match pred_aliases p with
      | [ a ] -> String.equal a alias
      | [ a; b ] -> String.equal a alias && String.equal b alias
      | _ -> false)
    preds

let block_wellformed cat block =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun m -> errors := m :: !errors) fmt in
  let aliases = List.map (fun r -> r.alias) block.relations in
  if List.length (List.sort_uniq String.compare aliases) <> List.length aliases
  then err "duplicate aliases";
  let resolve (alias, column) =
    match List.find_opt (fun r -> String.equal r.alias alias) block.relations with
    | None -> err "unknown alias %s" alias
    | Some r -> (
        match Rschema.find_table cat r.table with
        | None -> err "unknown table %s" r.table
        | Some tbl ->
            if Rschema.find_column tbl column = None then
              err "no column %s.%s" r.table column)
  in
  List.iter
    (fun p ->
      resolve p.lhs;
      match p.rhs with O_col c -> resolve c | O_const _ | O_param _ -> ())
    block.preds;
  List.iter resolve block.out;
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let to_sql block =
  let operand = function
    | O_const (Rtype.V_int n) -> Sql.Int n
    | O_const (Rtype.V_string s) -> Sql.Str s
    | O_const Rtype.V_null -> Sql.Str "NULL"
    | O_col (a, c) -> Sql.Col (Sql.col a c)
    | O_param k -> Sql.Param k
  in
  let op = function
    | C_eq -> Sql.Eq
    | C_ne -> Sql.Ne
    | C_lt -> Sql.Lt
    | C_le -> Sql.Le
    | C_gt -> Sql.Gt
    | C_ge -> Sql.Ge
  in
  {
    Sql.proj = List.map (fun (a, c) -> Sql.col a c) block.out;
    from =
      List.map (fun r -> { Sql.table = r.table; alias = r.alias }) block.relations;
    where =
      List.map
        (fun p ->
          { Sql.op = op p.cmp; lhs = Sql.Col (Sql.col (fst p.lhs) (snd p.lhs));
            rhs = operand p.rhs })
        block.preds;
  }

let query_to_sql q = List.map (fun b -> Sql.Select (to_sql b)) q.blocks

let pp_block fmt b = Sql.pp_select fmt (to_sql b)

let pp_query fmt q =
  Format.fprintf fmt "@[<v>-- %s@," q.qname;
  List.iteri
    (fun i b ->
      if i > 0 then Format.fprintf fmt "@,-- plus@,";
      Format.fprintf fmt "%a;" pp_block b)
    q.blocks;
  Format.fprintf fmt "@]"

(* ------------------------------------------------------------------ *)
(* write operations (update workloads)                                 *)
(* ------------------------------------------------------------------ *)

type write_kind = W_insert | W_delete | W_update

type write = {
  w_table : string;
  w_kind : write_kind;
  w_locate : block option;
  w_per_row : float;
}

type update = { uname : string; writes : write list }

let pp_write fmt w =
  let kind =
    match w.w_kind with
    | W_insert -> "INSERT INTO"
    | W_delete -> "DELETE FROM"
    | W_update -> "UPDATE"
  in
  Format.fprintf fmt "%s %s (x%.2f%s)" kind w.w_table w.w_per_row
    (match w.w_locate with Some _ -> " per located row" | None -> "")

let pp_update fmt u =
  Format.fprintf fmt "@[<v>-- %s@," u.uname;
  List.iter (fun w -> Format.fprintf fmt "%a@," pp_write w) u.writes;
  Format.fprintf fmt "@]"
