open Legodb_xml

exception Import_error of string

let fail fmt = Format.kasprintf (fun m -> raise (Import_error m)) fmt

let local_name tag =
  match String.rindex_opt tag ':' with
  | Some i -> String.sub tag (i + 1) (String.length tag - i - 1)
  | None -> tag

let is_tag name node =
  match Xml.tag node with
  | Some t -> String.equal (local_name t) name
  | None -> false

let scalar_of_type_name t =
  match local_name t with
  | "integer" | "int" | "long" | "number" | "decimal" -> Some Xtype.integer
  | "string" | "date" | "dateTime" | "boolean" | "anyURI" | "token"
  | "normalizedString" ->
      Some Xtype.string_
  | _ -> None

let is_xsd_scalar t =
  (* a type reference with an xsd/xs prefix is a built-in scalar *)
  match String.index_opt t ':' with
  | Some _ -> scalar_of_type_name t <> None
  | None -> false

let occurs_of node =
  let lo =
    match Xml.attribute "minOccurs" node with
    | Some v -> (
        match int_of_string_opt v with
        | Some n -> n
        | None -> fail "bad minOccurs %S" v)
    | None -> 1
  in
  let hi =
    match Xml.attribute "maxOccurs" node with
    | Some "unbounded" -> Xtype.Unbounded
    | Some v -> (
        match int_of_string_opt v with
        | Some n -> Xtype.Bounded n
        | None -> fail "bad maxOccurs %S" v)
    | None -> Xtype.Bounded 1
  in
  { Xtype.lo; hi }

type env = {
  complex_types : (string * Xml.t) list;
  element_groups : (string * Xml.t) list;
  (* definitions created so far, in creation order (reversed) *)
  mutable defs : Xschema.defn list;
  (* (complex type, element tag) -> definition name *)
  mutable instantiated : ((string * string) * string) list;
  mutable group_defs : (string * string) list;  (* group name -> def name *)
}

let def_name_taken env n =
  List.exists (fun (d : Xschema.defn) -> String.equal d.name n) env.defs

let fresh_def_name env base =
  let rec go candidate =
    if def_name_taken env candidate then go (candidate ^ "'") else candidate
  in
  go base

(* content model of a complexType / group / sequence node *)
let rec content_of env node =
  Xtype.seq
    (List.filter_map
       (fun child ->
         match child with
         | Xml.Text _ -> None
         | Xml.Element _ -> item_of env child)
       (Xml.children node))

and item_of env node : Xtype.t option =
  if is_tag "sequence" node then Some (content_of env node)
  else if is_tag "choice" node then
    Some
      (Xtype.choice
         (List.filter_map (item_of env) (Xml.element_children node))
      |> fun t -> Xtype.rep t (occurs_of node))
  else if is_tag "element" node then Some (element_of env node)
  else if is_tag "attribute" node then (
    match Xml.attribute "name" node with
    | Some n ->
        let content =
          match Xml.attribute "type" node with
          | Some t -> Option.value ~default:Xtype.string_ (scalar_of_type_name t)
          | None -> Xtype.string_
        in
        Some (Xtype.attr n content)
    | None -> fail "attribute without a name")
  else if is_tag "any" node then
    Some (Xtype.rep (Xtype.elem Label.Any Xtype.string_) (occurs_of node))
  else if is_tag "group" node then (
    let name = Xml.attribute "name" node and ref = Xml.attribute "ref" node in
    let is_reference = Xml.element_children node = [] in
    match (ref, name) with
    | Some r, _ when is_reference ->
        Some (Xtype.rep (Xtype.ref_ (group_def env (local_name r))) (occurs_of node))
    | None, Some r when is_reference ->
        (* the paper's appendix writes references as <group name="Movie"/> *)
        Some (Xtype.rep (Xtype.ref_ (group_def env (local_name r))) (occurs_of node))
    | _, Some _ ->
        (* an inline group definition used in place *)
        Some (content_of env node)
    | _, None -> fail "group without name or ref")
  else if is_tag "annotation" node || is_tag "documentation" node then None
  else if is_tag "simpleType" node then None
  else fail "unsupported construct <%s>" (Option.value ~default:"?" (Xml.tag node))

and element_of env node =
  let tag =
    match Xml.attribute "name" node with
    | Some n -> n
    | None -> fail "element without a name"
  in
  let occ = occurs_of node in
  let base =
    match Xml.attribute "type" node with
    | Some t when is_xsd_scalar t || scalar_of_type_name t <> None ->
        (* built-in scalar, or an unprefixed scalar name *)
        let scalar =
          match scalar_of_type_name t with
          | Some s -> s
          | None -> Xtype.string_
        in
        Xtype.named_elem tag scalar
    | Some t ->
        let ct = local_name t in
        Xtype.ref_ (instantiate env ct tag)
    | None -> (
        (* inline complexType, or a bare element *)
        match
          List.find_opt (is_tag "complexType") (Xml.element_children node)
        with
        | Some ct -> Xtype.named_elem tag (content_of env ct)
        | None -> Xtype.named_elem tag Xtype.string_)
  in
  Xtype.rep base occ

and instantiate env ct tag =
  match List.assoc_opt (ct, tag) env.instantiated with
  | Some def -> def
  | None -> (
      match List.assoc_opt ct env.complex_types with
      | None -> fail "reference to undefined complexType %s" ct
      | Some ct_node ->
          let def = fresh_def_name env ct in
          (* reserve the name before descending: recursive types *)
          env.instantiated <- ((ct, tag), def) :: env.instantiated;
          env.defs <- { Xschema.name = def; body = Xtype.Empty } :: env.defs;
          let body = Xtype.named_elem tag (content_of env ct_node) in
          env.defs <-
            List.map
              (fun (d : Xschema.defn) ->
                if String.equal d.name def then { d with body } else d)
              env.defs;
          def)

and group_def env g =
  match List.assoc_opt g env.group_defs with
  | Some def -> def
  | None -> (
      match List.assoc_opt g env.element_groups with
      | None -> fail "reference to undefined group %s" g
      | Some g_node ->
          let def = fresh_def_name env (String.capitalize_ascii g) in
          env.group_defs <- (g, def) :: env.group_defs;
          env.defs <- { Xschema.name = def; body = Xtype.Empty } :: env.defs;
          let body = content_of env g_node in
          env.defs <-
            List.map
              (fun (d : Xschema.defn) ->
                if String.equal d.name def then { d with body } else d)
              env.defs;
          def)

(* a parsed [<schema>] document; the root type is the first global
   element declaration *)
let schema_of_xml doc =
  if not (is_tag "schema" doc) then fail "document root is not <schema>";
  let tops = Xml.element_children doc in
  let named tag =
    List.filter_map
      (fun n ->
        if is_tag tag n then
          match Xml.attribute "name" n with
          | Some name -> Some (name, n)
          | None -> None
        else None)
      tops
  in
  let env =
    {
      complex_types = named "complexType";
      element_groups = named "group";
      defs = [];
      instantiated = [];
      group_defs = [];
    }
  in
  let globals = List.filter (is_tag "element") tops in
  match globals with
  | [] -> fail "no global element declaration"
  | _ ->
      let roots =
        List.map
          (fun g ->
            match element_of env g with
            | Xtype.Elem _ as e ->
                (* a global element with inline or scalar content: wrap
                   it in its own definition *)
                let tag = Option.value ~default:"root" (Xml.attribute "name" g) in
                let def = fresh_def_name env (String.capitalize_ascii tag) in
                env.defs <- { Xschema.name = def; body = e } :: env.defs;
                def
            | Xtype.Ref def -> def
            | t -> fail "unsupported global element shape: %s" (Xtype.to_string t))
          globals
      in
      let root = List.hd roots in
      Xschema.make ~root (List.rev env.defs)

let schema_of_string s = schema_of_xml (Xml_parse.parse_string s)
let schema_of_file path = schema_of_xml (Xml_parse.parse_file path)
