open Legodb_xml
open Legodb_xtype
open Legodb_relational

type st = { db : Storage.t; m : Mapping.t }

let col_value st ty (row : Storage.row) column =
  match Storage.column_position st.db ~table:ty ~column with
  | exception Not_found -> Rtype.V_null
  | pos -> row.(pos)

let text_of_value = function
  | Rtype.V_int n -> Some (string_of_int n)
  | Rtype.V_string s -> Some s
  | Rtype.V_null -> None

(* the text stored at a position of [ty]'s row *)
let text st ty row position =
  text_of_value (col_value st ty row (Mapping.column st.m ~ty position))

let key_value st ty row =
  match col_value st ty row (Naming.key_col ty) with
  | Rtype.V_int id -> id
  | _ -> -1

(* the sort key for sibling rows: global document order when stored,
   insertion order (the key) otherwise *)
let order_value st ty row =
  if st.m.Mapping.ordered then
    match col_value st ty row Naming.order_col with
    | Rtype.V_int o -> o
    | _ -> key_value st ty row
  else key_value st ty row

(* children of (parent_ty, parent_row) stored under type [n] *)
let rec expand st (parent_ty, parent_row) n : (string * string) list * Xml.t list
    =
  let attrs, pairs = expand_pairs st (parent_ty, parent_row) n in
  let pairs =
    (* a transparent union (horizontal partitioning) interleaves rows of
       several tables: merge by document order when it is stored *)
    if st.m.Mapping.ordered then
      List.sort (fun (a, _) (b, _) -> Int.compare a b) pairs
    else pairs
  in
  (attrs, List.map snd pairs)

and expand_pairs st (parent_ty, parent_row) n :
    (string * string) list * (int * Xml.t) list =
  match Xschema.find_opt st.m.Mapping.schema n with
  | None -> ([], [])
  | Some body ->
      if Mapping.is_transparent st.m.Mapping.schema n then
        List.fold_left
          (fun (attrs, pairs) r ->
            let a, k = expand_pairs st (parent_ty, parent_row) r in
            (attrs @ a, pairs @ k))
          ([], []) (Xtype.refs body)
      else
        let parent_id = key_value st parent_ty parent_row in
        let rows =
          Storage.lookup st.db ~table:n ~column:(Naming.fk_col parent_ty)
            (Rtype.V_int parent_id)
        in
        let rows =
          List.sort (fun a b -> Int.compare (order_value st n a) (order_value st n b)) rows
        in
        List.fold_left
          (fun (attrs, pairs) row ->
            let o = order_value st n row in
            match body with
            | Xtype.Elem e -> (attrs, pairs @ [ (o, build_elem st (n, row) e) ])
            | body ->
                (* spliced type: its content belongs to the parent element *)
                let a, k = process st (n, row) ~prefix:[] body in
                (attrs @ a, pairs @ List.map (fun node -> (o, node)) k))
          ([], []) rows

and process ?(optional = false) st (ty, row) ~prefix t :
    (string * string) list * Xml.t list =
  match t with
  | Xtype.Empty | Xtype.Scalar _ -> ([], [])
  | Xtype.Choice _ when Mapping.scalar_content t -> ([], [])
  | Xtype.Attr (n, _) -> (
      match text st ty row (Scalar (prefix @ [ n ])) with
      | Some v -> ([ (n, v) ], [])
      | None -> ([], []))
  | Xtype.Elem e -> (
      match e.label with
      | Label.Name n ->
          if Mapping.scalar_content e.content then (
            match text st ty row (Scalar (prefix @ [ n ])) with
            | Some v -> ([], [ Xml.leaf n v ])
            | None -> ([], []))
          else
            let attrs, kids =
              process st (ty, row) ~prefix:(prefix @ [ n ]) e.content
            in
            (* an optional element whose content is entirely NULL was
               absent from the original document *)
            if optional && attrs = [] && kids = [] then ([], [])
            else ([], [ Xml.Element (n, attrs, kids) ])
      | Label.Any | Label.Any_except _ -> (
          let path = prefix @ [ "tilde" ] in
          match text st ty row (Tag path) with
          | None -> ([], [])
          | Some tag -> ([], [ element_at st (ty, row) path tag e ])))
  | Xtype.Seq ts | Xtype.Choice ts ->
      List.fold_left
        (fun (attrs, nodes) u ->
          let a, k = process ~optional st (ty, row) ~prefix u in
          (attrs @ a, nodes @ k))
        ([], []) ts
  | Xtype.Rep (u, o) ->
      let optional = optional || o.Xtype.lo = 0 in
      process ~optional st (ty, row) ~prefix u
  | Xtype.Ref n -> expand st (ty, row) n

(* the element [e] at [path] of [ty]'s row, under its concrete tag *)
and element_at st (ty, row) path tag (e : Xtype.elem) =
  if Mapping.scalar_content e.content then
    let value =
      match e.label with
      | Label.Name _ -> text st ty row (Scalar path)
      | Label.Any | Label.Any_except _ -> text st ty row (Wild path)
    in
    Xml.Element
      (tag, [], match value with Some v -> [ Xml.Text v ] | None -> [])
  else
    let attrs, kids = process st (ty, row) ~prefix:path e.content in
    Xml.Element (tag, attrs, kids)

and build_elem st (ty, row) (e : Xtype.elem) =
  let tag =
    match e.label with
    | Label.Name n -> n
    | Label.Any | Label.Any_except _ ->
        Option.value ~default:"unknown" (text st ty row (Tag []))
  in
  element_at st (ty, row) [] tag e

let element db m ~ty ~id =
  let st = { db; m } in
  match Xschema.find_opt m.Mapping.schema ty with
  | None -> invalid_arg (Printf.sprintf "Publish.element: unknown type %s" ty)
  | Some (Xtype.Elem e) -> (
      match
        Storage.lookup db ~table:ty ~column:(Naming.key_col ty) (Rtype.V_int id)
      with
      | [] -> raise Not_found
      | row :: _ -> build_elem st (ty, row) e)
  | Some _ ->
      invalid_arg
        (Printf.sprintf "Publish.element: type %s is not element-rooted" ty)

let document db m =
  let root = Legodb_xtype.Xschema.root m.Mapping.schema in
  let rec first_concrete ty =
    if Mapping.is_transparent m.Mapping.schema ty then
      match Xschema.find_opt m.Mapping.schema ty with
      | Some body -> (
          match Xtype.refs body with
          | r :: _ -> first_concrete r
          | [] -> ty)
      | None -> ty
    else ty
  in
  let ty = first_concrete root in
  (* for a recursive root type the table holds the whole spine: the
     document root is the row with no parent *)
  let tbl = Rschema.table (Storage.catalog db) ty in
  let rootless (row : Storage.row) =
    List.for_all
      (fun (col, _) ->
        match Storage.column_position db ~table:ty ~column:col with
        | pos -> row.(pos) = Rtype.V_null
        | exception Not_found -> true)
      tbl.Rschema.fks
  in
  match List.filter rootless (List.of_seq (Storage.scan db ty)) with
  | [ row ] ->
      let st = { db; m } in
      (match Xschema.find_opt m.Mapping.schema ty with
      | Some (Xtype.Elem e) -> build_elem st (ty, row) e
      | _ -> failwith "Publish.document: root type is not element-rooted")
  | rows ->
      failwith
        (Printf.sprintf "Publish.document: %d parentless rows in the root table"
           (List.length rows))
