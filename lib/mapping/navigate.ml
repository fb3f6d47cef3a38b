open Legodb_xtype

type place = { ty : string; prefix : string list }

type found =
  | F_elem of { hops : string list; place : place }
  | F_column of { hops : string list; ty : string; column : string }
  | F_wild of {
      hops : string list;
      ty : string;
      tilde : string;
      data : string;
      tag : string;
    }

(* an element's step in a place's prefix: its tag, or "tilde" for a
   wildcard *)
let prefix_step (label : Label.t) =
  match label with Label.Name n -> n | Label.Any | Label.Any_except _ -> "tilde"

(* Content types of the inline element at [prefix] within [ty]'s body. *)
let content_at schema ty prefix =
  match Xschema.find_opt schema ty with
  | None -> []
  | Some body ->
      let start = match body with Xtype.Elem e -> e.content | b -> b in
      let rec descend content steps =
        match steps with
        | [] -> [ content ]
        | s :: rest ->
            let rec scan t acc =
              match t with
              | Xtype.Elem e when String.equal (prefix_step e.label) s ->
                  e.content :: acc
              | Xtype.Elem _ | Xtype.Empty | Xtype.Scalar _ | Xtype.Attr _
              | Xtype.Ref _ ->
                  acc
              | Xtype.Seq ts | Xtype.Choice ts ->
                  List.fold_left (fun acc t -> scan t acc) acc ts
              | Xtype.Rep (u, _) -> scan u acc
            in
            List.concat_map (fun c -> descend c rest) (List.rev (scan content []))
      in
      descend start prefix

(* The element [e] at [path] of [ty], matched by [step]: a column when
   its content is scalar, else an element position (a structured
   wildcard's tag lives in its tag column). *)
let found_elem m ~hops ~ty path step (e : Xtype.elem) =
  if not (Mapping.scalar_content e.content) then
    F_elem { hops; place = { ty; prefix = path } }
  else
    match e.label with
    | Label.Name _ ->
        F_column { hops; ty; column = Mapping.column m ~ty (Scalar path) }
    | Label.Any | Label.Any_except _ ->
        F_wild
          {
            hops;
            ty;
            tilde = Mapping.column m ~ty (Tag path);
            data = Mapping.column m ~ty (Wild path);
            tag = step;
          }

let rec find_in m ~visited ~hops ~ty ~prefix step content acc =
  match content with
  | Xtype.Elem e when Label.matches e.label step ->
      found_elem m ~hops ~ty (prefix @ [ prefix_step e.label ]) step e
      :: acc
  | Xtype.Attr (n, _) when String.equal n step ->
      let column = Mapping.column m ~ty (Scalar (prefix @ [ n ])) in
      F_column { hops; ty; column } :: acc
  | Xtype.Elem _ | Xtype.Attr _ | Xtype.Scalar _ | Xtype.Empty -> acc
  | Xtype.Seq ts | Xtype.Choice ts ->
      List.fold_left
        (fun acc t -> find_in m ~visited ~hops ~ty ~prefix step t acc)
        acc ts
  | Xtype.Rep (u, _) -> find_in m ~visited ~hops ~ty ~prefix step u acc
  | Xtype.Ref n -> enter m ~visited ~hops step n acc

and enter (m : Mapping.t) ~visited ~hops step n acc =
  if List.mem n visited then acc
  else
    let visited = n :: visited in
    match Xschema.find_opt m.schema n with
    | None -> acc
    | Some body -> (
        if Mapping.is_transparent m.schema n then
          (* no table of its own: look through to its references *)
          find_in m ~visited ~hops ~ty:n ~prefix:[] step body acc
        else
          let hops = hops @ [ n ] in
          match body with
          | Xtype.Elem e when Label.matches e.label step ->
              found_elem m ~hops ~ty:n [] step e :: acc
          | Xtype.Elem _ -> acc
          | body ->
              (* a type without a root element splices its content into
                 the parent's element: match inside it *)
              find_in m ~visited ~hops ~ty:n ~prefix:[] step body acc)

(* When a step matches both a concretely named element and a wildcard at
   the same content level, prefer the named element (the unique-particle
   intuition of XML Schema; a wildcard sibling could in principle carry
   the same tag, but queries mean the declared element). *)
let prefer_named founds =
  let named =
    List.filter (function F_wild _ -> false | F_elem _ | F_column _ -> true) founds
  in
  if named <> [] then named else founds

let navigate (m : Mapping.t) place step =
  prefer_named
    (List.concat_map
       (fun content ->
         List.rev
           (find_in m ~visited:[] ~hops:[] ~ty:place.ty ~prefix:place.prefix
              step content []))
       (content_at m.schema place.ty place.prefix))

let enter_root (m : Mapping.t) step =
  prefer_named (List.rev (enter m ~visited:[] ~hops:[] step (Xschema.root m.schema) []))

let navigate_path m founds path =
  List.fold_left
    (fun frontier step ->
      List.concat_map
        (function
          | F_elem { hops; place } ->
              List.map
                (function
                  | F_elem f -> F_elem { f with hops = hops @ f.hops }
                  | F_column f -> F_column { f with hops = hops @ f.hops }
                  | F_wild f -> F_wild { f with hops = hops @ f.hops })
                (navigate m place step)
          | F_column _ | F_wild _ -> [])
        frontier)
    founds path

let descendant_tables (m : Mapping.t) place =
  let out = ref [] in
  let rec from_content hops visited content =
    match content with
    | Xtype.Elem e -> from_content hops visited e.Xtype.content
    | Xtype.Seq ts | Xtype.Choice ts ->
        List.iter (from_content hops visited) ts
    | Xtype.Rep (u, _) -> from_content hops visited u
    | Xtype.Ref n -> enter_desc hops visited n
    | Xtype.Scalar _ | Xtype.Attr _ | Xtype.Empty -> ()
  and enter_desc hops visited n =
    if List.mem n visited then ()
    else
      let visited = n :: visited in
      match Xschema.find_opt m.schema n with
      | None -> ()
      | Some body ->
          if Mapping.is_transparent m.schema n then
            from_content hops visited body
          else begin
            let hops = hops @ [ n ] in
            out := hops :: !out;
            from_content hops visited body
          end
  in
  List.iter
    (fun content -> from_content [] [] content)
    (content_at m.schema place.ty place.prefix);
  List.rev !out

let pp_found fmt = function
  | F_elem { hops; place } ->
      Format.fprintf fmt "element in %s at %s (via %s)" place.ty
        (String.concat "/" place.prefix)
        (String.concat "->" hops)
  | F_column { hops; ty; column } ->
      Format.fprintf fmt "column %s.%s (via %s)" ty column
        (String.concat "->" hops)
  | F_wild { hops; ty; tilde; data; tag } ->
      Format.fprintf fmt "wildcard %s: %s.%s/%s (via %s)" tag ty tilde data
        (String.concat "->" hops)
