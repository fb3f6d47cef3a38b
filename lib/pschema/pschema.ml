open Legodb_xtype

type violation = { tname : string; loc : Xtype.loc; reason : string }

let pp_violation fmt v =
  Format.fprintf fmt "type %s at [%s]: %s" v.tname
    (String.concat "." (List.map string_of_int v.loc))
    v.reason

let rec scalar_like schema t =
  match t with
  | Xtype.Scalar _ -> true
  | Xtype.Ref n -> (
      match Xschema.find_opt schema n with
      | Some body -> scalar_like schema body
      | None -> false)
  | Xtype.Choice ts -> List.for_all (scalar_like schema) ts
  | Xtype.Empty | Xtype.Attr _ | Xtype.Elem _ | Xtype.Seq _ | Xtype.Rep _ ->
      false

let is_optional (o : Xtype.occurs) =
  o.lo = 0 && match o.hi with Xtype.Bounded 1 -> true | _ -> false

let violations_of_body schema tname body =
  let out = ref [] in
  let bad rev_loc reason =
    out := { tname; loc = List.rev rev_loc; reason } :: !out
  in
  (* the named layer: only type names, combined by seq/choice/rep *)
  let rec named rev_loc t =
    match t with
    | Xtype.Ref _ | Xtype.Empty -> ()
    | Xtype.Seq ts | Xtype.Choice ts ->
        List.iteri (fun i u -> named (i :: rev_loc) u) ts
    | Xtype.Rep (u, _) -> named (0 :: rev_loc) u
    | Xtype.Elem _ ->
        bad rev_loc "element under a repetition or union must be a type name"
    | Xtype.Scalar _ ->
        bad rev_loc "scalar under a repetition or union must be a type name"
    | Xtype.Attr _ ->
        bad rev_loc "attribute cannot occur under a repetition or union"
  in
  (* the physical layer *)
  let rec physical rev_loc t =
    match t with
    | Xtype.Empty | Xtype.Scalar _ | Xtype.Ref _ -> ()
    | Xtype.Attr (_, u) ->
        if not (scalar_like schema u) then
          bad (0 :: rev_loc) "attribute content must be a scalar type"
    | Xtype.Elem e -> physical (0 :: rev_loc) e.content
    | Xtype.Seq ts -> List.iteri (fun i u -> physical (i :: rev_loc) u) ts
    | Xtype.Rep (u, o) when is_optional o -> physical (0 :: rev_loc) u
    | Xtype.Rep (u, _) -> named (0 :: rev_loc) u
    | Xtype.Choice ts ->
        if scalar_like schema t then ()
        else List.iteri (fun i u -> named (i :: rev_loc) u) ts
  in
  physical [] body;
  List.rev !out

let check schema =
  match Xschema.check schema with
  | Error es ->
      Error
        (List.map (fun m -> { tname = Xschema.root schema; loc = []; reason = m }) es)
  | Ok () -> (
      let reachable = Xschema.reachable schema in
      let vs =
        List.concat_map
          (fun name ->
            match Xschema.find_opt schema name with
            | Some body -> violations_of_body schema name body
            | None -> [])
          reachable
      in
      match vs with [] -> Ok reachable | _ -> Error vs)

let is_pschema schema = match check schema with Ok _ -> true | Error _ -> false
