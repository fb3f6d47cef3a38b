type col_stats = {
  distinct : float;
  null_frac : float;
  v_min : int option;
  v_max : int option;
  avg_width : float;
}

type column = {
  cname : string;
  ctype : Rtype.t;
  nullable : bool;
  stats : col_stats;
}

type table = {
  tname : string;
  key : string;
  columns : column list;
  fks : (string * string) list;
  indexed : string list;
  card : float;
}

type t = { tables : table list }

let find_table cat name =
  List.find_opt (fun t -> String.equal t.tname name) cat.tables

let table cat name =
  match find_table cat name with Some t -> t | None -> raise Not_found

let find_column tbl name =
  List.find_opt (fun c -> String.equal c.cname name) tbl.columns

let column tbl name =
  match find_column tbl name with Some c -> c | None -> raise Not_found

let row_width tbl =
  List.fold_left (fun w c -> w +. c.stats.avg_width) 0. tbl.columns

let has_index tbl cname = List.exists (String.equal cname) tbl.indexed

let with_index tbl cname =
  if has_index tbl cname then tbl else { tbl with indexed = cname :: tbl.indexed }

let add_indexes cat pairs =
  {
    tables =
      List.map
        (fun tbl ->
          List.fold_left
            (fun tbl (tname, cname) ->
              if String.equal tname tbl.tname && find_column tbl cname <> None
              then with_index tbl cname
              else tbl)
            tbl pairs)
        cat.tables;
  }

let validate ?(valid = fun _ -> false) cat =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun m -> errors := m :: !errors) fmt in
  let names = List.map (fun t -> t.tname) cat.tables in
  if List.length (List.sort_uniq String.compare names) <> List.length names then
    err "duplicate table names";
  List.iter
    (fun tbl ->
      let own = not (valid tbl) in
      if own then begin
        let cnames = List.map (fun c -> c.cname) tbl.columns in
        if
          List.length (List.sort_uniq String.compare cnames)
          <> List.length cnames
        then err "table %s: duplicate column names" tbl.tname;
        if find_column tbl tbl.key = None then
          err "table %s: key column %s missing" tbl.tname tbl.key
      end;
      List.iter
        (fun (col, parent) ->
          if own && find_column tbl col = None then
            err "table %s: foreign key column %s missing" tbl.tname col;
          if find_table cat parent = None then
            err "table %s: foreign key to unknown table %s" tbl.tname parent)
        tbl.fks;
      if own then begin
        List.iter
          (fun c ->
            if c.stats.null_frac < 0. || c.stats.null_frac > 1. then
              err "table %s: column %s null_frac out of range" tbl.tname
                c.cname;
            if c.stats.distinct < 0. then
              err "table %s: column %s negative distinct" tbl.tname c.cname)
          tbl.columns;
        if tbl.card < 0. then err "table %s: negative cardinality" tbl.tname
      end)
    cat.tables;
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let pp_table fmt tbl =
  Format.fprintf fmt "@[<v 2>TABLE %s (" tbl.tname;
  let n = List.length tbl.columns in
  List.iteri
    (fun i c ->
      Format.fprintf fmt "@,%s %a%s%s" c.cname Rtype.pp c.ctype
        (if c.nullable then " NULL" else "")
        (if i < n - 1 then "," else ""))
    tbl.columns;
  Format.fprintf fmt " )@]";
  List.iter
    (fun (col, parent) ->
      Format.fprintf fmt "@,  -- %s REFERENCES %s(%s_id)" col parent parent)
    tbl.fks

let pp fmt cat =
  List.iteri
    (fun i tbl ->
      if i > 0 then Format.fprintf fmt "@,";
      Format.fprintf fmt "%a  -- %.0f rows@," pp_table tbl tbl.card)
    cat.tables
