type table_ref = { table : string; alias : string }
type col_ref = { calias : string; col : string }
type operand = Col of col_ref | Int of int | Str of string | Param of int
type op = Eq | Ne | Lt | Le | Gt | Ge
type cond = { op : op; lhs : operand; rhs : operand }

type select = {
  proj : col_ref list;
  from : table_ref list;
  where : cond list;
}

type statement = Select of select | Union_all of select list

let col calias col = { calias; col }
let eq lhs rhs = { op = Eq; lhs; rhs }

let pp_col fmt c =
  if c.calias = "" then Format.pp_print_string fmt c.col
  else Format.fprintf fmt "%s.%s" c.calias c.col

let pp_operand fmt = function
  | Col c -> pp_col fmt c
  | Int n -> Format.pp_print_int fmt n
  | Str s -> Format.pp_print_string fmt (Rtype.value_to_sql (Rtype.V_string s))
  | Param k -> Format.fprintf fmt "?%d" k

let op_string = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let pp_cond fmt c =
  Format.fprintf fmt "%a %s %a" pp_operand c.lhs (op_string c.op) pp_operand
    c.rhs

let pp_list sep pp fmt l =
  List.iteri
    (fun i x ->
      if i > 0 then Format.fprintf fmt "%s@ " sep;
      pp fmt x)
    l

let pp_select fmt s =
  Format.fprintf fmt "@[<hv 2>SELECT @[<hov>%a@]@ FROM @[<hov>%a@]"
    (fun fmt -> function
      | [] -> Format.pp_print_string fmt "*"
      | proj -> pp_list "," pp_col fmt proj)
    s.proj
    (pp_list ","
       (fun fmt (t : table_ref) ->
         if String.equal t.table t.alias || t.alias = "" then
           Format.pp_print_string fmt t.table
         else Format.fprintf fmt "%s %s" t.table t.alias))
    s.from;
  if s.where <> [] then
    Format.fprintf fmt "@ WHERE @[<hov>%a@]" (pp_list " AND" pp_cond) s.where;
  Format.fprintf fmt "@]"

let pp_statement fmt = function
  | Select s -> pp_select fmt s
  | Union_all ss ->
      pp_list "  UNION ALL"
        (fun fmt s -> Format.fprintf fmt "(%a)" pp_select s)
        fmt ss

let to_string s = Format.asprintf "%a" pp_statement s

let ddl (cat : Rschema.t) =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  List.iter
    (fun (tbl : Rschema.table) ->
      Format.fprintf fmt "@[<v 2>CREATE TABLE %s (" tbl.tname;
      let n = List.length tbl.columns in
      List.iteri
        (fun i (c : Rschema.column) ->
          Format.fprintf fmt "@,%s %s%s%s%s" c.cname (Rtype.to_sql c.ctype)
            (if not c.nullable then " NOT NULL" else "")
            (if String.equal c.cname tbl.key then " PRIMARY KEY" else "")
            (match List.assoc_opt c.cname tbl.fks with
            | Some parent ->
                Printf.sprintf " REFERENCES %s(%s_id)" parent parent
            | None -> "");
          if i < n - 1 then Format.fprintf fmt ",")
        tbl.columns;
      Format.fprintf fmt "@]@,);@,";
      List.iter
        (fun cname ->
          if not (String.equal cname tbl.key) then
            Format.fprintf fmt "CREATE INDEX idx_%s_%s ON %s(%s);@," tbl.tname
              cname tbl.tname cname)
        tbl.indexed)
    cat.tables;
  Format.pp_print_flush fmt ();
  Buffer.contents buf
