open Legodb_xtype
module Pschema = Legodb_pschema.Pschema

let max_steps = 100_000

let normalize schema =
  let rec fix schema steps =
    if steps > max_steps then
      raise (Rewrite.Not_applicable "normalization did not converge")
    else
      match Pschema.check schema with
      | Ok _ -> schema
      | Error (v :: _) -> (
          match Xtype.subterm (Xschema.find schema v.Pschema.tname) v.loc with
          | Some (Xtype.Elem _ | Xtype.Scalar _) ->
              let schema, _ =
                Rewrite.outline schema ~tname:v.Pschema.tname ~loc:v.loc
              in
              fix schema (steps + 1)
          | Some _ | None ->
              raise
                (Rewrite.Not_applicable
                   (Format.asprintf "cannot repair: %a" Pschema.pp_violation v)))
      | Error [] -> schema
  in
  fix (Xschema.gc schema) 0

let find_first defs pick =
  List.find_map
    (fun (d : Xschema.defn) ->
      List.find_map
        (fun (loc, t) -> pick d.name loc t)
        (Xtype.locations d.body))
    defs

let all_outlined schema =
  let rec fix schema steps =
    if steps > max_steps then schema
    else
      let next =
        find_first (Xschema.defs schema) (fun name loc t ->
            match t with
            | Xtype.Elem _ when loc <> [] -> Some (name, loc)
            | _ -> None)
      in
      match next with
      | None -> schema
      | Some (tname, loc) ->
          fix (fst (Rewrite.outline schema ~tname ~loc)) (steps + 1)
  in
  fix (normalize schema) 0

let scalar_choice ts =
  List.for_all (function Xtype.Scalar _ -> true | _ -> false) ts

let all_inlined ?(union_to_options = true) schema =
  let schema = normalize schema in
  let rec remove_unions schema steps =
    if steps > max_steps then schema
    else
      let next =
        find_first (Xschema.defs schema) (fun name loc t ->
            match t with
            | Xtype.Choice ts
              when (not (scalar_choice ts))
                   && Rewrite.inlinable_position schema ~tname:name ~loc ->
                Some (name, loc)
            | _ -> None)
      in
      match next with
      | None -> schema
      | Some (tname, loc) ->
          remove_unions (Rewrite.union_to_options schema ~tname ~loc) (steps + 1)
  in
  let schema = if union_to_options then remove_unions schema 0 else schema in
  let rec inline_all schema steps =
    if steps > max_steps then schema
    else
      let next =
        find_first (Xschema.defs schema) (fun name loc t ->
            match t with
            | Xtype.Ref _ when Rewrite.can_inline schema ~tname:name ~loc ->
                Some (name, loc)
            | _ -> None)
      in
      match next with
      | None -> schema
      | Some (tname, loc) ->
          inline_all (Rewrite.inline schema ~tname ~loc) (steps + 1)
  in
  inline_all schema 0
