open Legodb_xml

let step node name =
  (* elements first; attribute values are wrapped as text-only synthetic
     elements so path machinery stays uniform *)
  let elems = Xml.child_elements name node in
  match (elems, Xml.attribute name node) with
  | [], Some v -> [ Xml.leaf name v ]
  | es, _ -> es

let select node path =
  List.fold_left (fun nodes name -> List.concat_map (fun n -> step n name) nodes)
    [ node ] path

let path_values node path =
  List.map Xml.text_content (select node path)

let normalize v =
  match Xml.int_of_text v with
  | Some n -> string_of_int n
  | None -> String.trim v

let values_equal a b = String.equal (normalize a) (normalize b)

let const_string = function
  | Xq_ast.C_int n -> string_of_int n
  | Xq_ast.C_string s -> s

(* All binding tuples (var -> node) of a FLWR over a document. *)
let binding_tuples doc (flwr : Xq_ast.flwr) =
  List.fold_left
    (fun tuples (v, source) ->
      List.concat_map
        (fun tuple ->
          let nodes =
            match source with
            | Xq_ast.Doc path -> (
                (* absolute: first step must match the root *)
                match path with
                | [] -> []
                | root :: rest ->
                    if Xml.tag doc = Some root then select doc rest else [])
            | Xq_ast.Var_path (w, path) -> (
                match List.assoc_opt w tuple with
                | Some node -> select node path
                | None -> [])
          in
          List.map (fun n -> (v, n) :: tuple) nodes)
        tuples)
    [ [] ]
    flwr.bindings

let pred_holds tuple (p : Xq_ast.pred) =
  match List.assoc_opt (fst p.left) tuple with
  | None -> false
  | Some node ->
      let lefts = path_values node (snd p.left) in
      let rights =
        match p.right with
        | Xq_ast.O_const c -> [ const_string c ]
        | Xq_ast.O_param _ ->
            invalid_arg "Xq_eval: a template's parameter slot has no value"
        | Xq_ast.O_path (w, path) -> (
            match List.assoc_opt w tuple with
            | Some n -> path_values n path
            | None -> [])
      in
      List.exists (fun l -> List.exists (values_equal l) rights) lefts

let satisfying doc (flwr : Xq_ast.flwr) =
  List.filter
    (fun tuple -> List.for_all (pred_holds tuple) flwr.where)
    (binding_tuples doc flwr)

let count_bindings doc (q : Xq_ast.t) = List.length (satisfying doc q.body)

let eval_strings doc (q : Xq_ast.t) =
  let rec scalar_rets acc = function
    | Xq_ast.R_path (v, path) -> (v, path) :: acc
    | Xq_ast.R_elem (_, rs) -> List.fold_left scalar_rets acc rs
    | Xq_ast.R_var _ | Xq_ast.R_nested _ -> acc
  in
  let rets = List.rev (List.fold_left scalar_rets [] q.body.return) in
  List.map
    (fun tuple ->
      List.concat_map
        (fun (v, path) ->
          match List.assoc_opt v tuple with
          | Some node -> path_values node path
          | None -> [])
        rets)
    (satisfying doc q.body)
