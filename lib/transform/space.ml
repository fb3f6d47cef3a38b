open Legodb_xtype

type kind =
  | K_inline
  | K_outline
  | K_union_dist
  | K_union_factor
  | K_rep_split
  | K_rep_merge
  | K_wildcard
  | K_union_opts

type step =
  | Inline of { tname : string; loc : Xtype.loc; target : string }
  | Outline of { tname : string; loc : Xtype.loc; tag : string }
  | Union_dist of { tname : string; loc : Xtype.loc }
  | Union_factor of { tname : string; loc : Xtype.loc }
  | Rep_split of { tname : string; loc : Xtype.loc; target : string }
  | Rep_merge of { tname : string; loc : Xtype.loc }
  | Wildcard of { tname : string; loc : Xtype.loc; tag : string }
  | Union_opts of { tname : string; loc : Xtype.loc }

let kind_of_step = function
  | Inline _ -> K_inline
  | Outline _ -> K_outline
  | Union_dist _ -> K_union_dist
  | Union_factor _ -> K_union_factor
  | Rep_split _ -> K_rep_split
  | Rep_merge _ -> K_rep_merge
  | Wildcard _ -> K_wildcard
  | Union_opts _ -> K_union_opts

let pp_loc fmt loc =
  Format.pp_print_string fmt (String.concat "." (List.map string_of_int loc))

let pp_step fmt = function
  | Inline { tname; target; _ } ->
      Format.fprintf fmt "inline %s into %s" target tname
  | Outline { tname; tag; loc } ->
      Format.fprintf fmt "outline %s from %s at %a" tag tname pp_loc loc
  | Union_dist { tname; loc } ->
      Format.fprintf fmt "distribute union in %s at %a" tname pp_loc loc
  | Union_factor { tname; loc } ->
      Format.fprintf fmt "factor union in %s at %a" tname pp_loc loc
  | Rep_split { tname; target; _ } ->
      Format.fprintf fmt "split repetition of %s in %s" target tname
  | Rep_merge { tname; loc } ->
      Format.fprintf fmt "merge repetition in %s at %a" tname pp_loc loc
  | Wildcard { tname; tag; _ } ->
      Format.fprintf fmt "materialize wildcard tag %s in %s" tag tname
  | Union_opts { tname; loc } ->
      Format.fprintf fmt "union to options in %s at %a" tname pp_loc loc

let default_kinds = [ K_inline; K_outline ]

let all_kinds =
  [
    K_inline;
    K_outline;
    K_union_dist;
    K_union_factor;
    K_rep_split;
    K_rep_merge;
    K_wildcard;
    K_union_opts;
  ]

let apply schema step =
  match step with
  | Inline { tname; loc; _ } -> Rewrite.inline schema ~tname ~loc
  | Outline { tname; loc; _ } -> fst (Rewrite.outline schema ~tname ~loc)
  | Union_dist { tname; loc } -> Rewrite.distribute_union schema ~tname ~loc
  | Union_factor { tname; loc } ->
      (* merged branches that spell a shared child differently leave an
         element under the union, which no mapping stores *)
      let schema' = Rewrite.factor_union schema ~tname ~loc in
      if Legodb_pschema.Pschema.is_pschema schema' then schema'
      else raise (Rewrite.Not_applicable "factored union is not a p-schema")
  | Rep_split { tname; loc; _ } -> Rewrite.split_repetition schema ~tname ~loc
  | Rep_merge { tname; loc } -> Rewrite.merge_repetition schema ~tname ~loc
  | Wildcard { tname; loc; tag } ->
      Rewrite.materialize_wildcard schema ~tname ~loc ~tag
  | Union_opts { tname; loc } -> Rewrite.union_to_options schema ~tname ~loc

let max_wildcard_tags = 8

let scalar_choice ts =
  List.for_all (function Xtype.Scalar _ -> true | _ -> false) ts

let candidates kinds schema =
  let want k = List.mem k kinds in
  let live = Xschema.reachable schema in
  List.concat_map
    (fun tname ->
      let body = Xschema.find schema tname in
      List.concat_map
        (fun (loc, t) ->
          let parent =
            if loc = [] then None
            else
              Xtype.subterm body
                (List.filteri (fun i _ -> i < List.length loc - 1) loc)
          in
          let steps = ref [] in
          let push s = steps := s :: !steps in
          (match t with
          | Xtype.Ref target ->
              if want K_inline && Rewrite.can_inline schema ~tname ~loc then
                push (Inline { tname; loc; target })
          | Xtype.Elem e ->
              if want K_outline && loc <> [] then
                push (Outline { tname; loc; tag = Label.column_name e.label });
              (match e.label with
              | Label.Any | Label.Any_except _ ->
                  if want K_wildcard then
                    let tags =
                      List.sort
                        (fun (_, a) (_, b) -> Float.compare b a)
                        e.ann.labels
                    in
                    List.iteri
                      (fun i (tag, _) ->
                        if i < max_wildcard_tags then
                          push (Wildcard { tname; loc; tag }))
                      tags
              | Label.Name _ -> ())
          | Xtype.Choice ts when not (scalar_choice ts) ->
              (if
                 want K_union_dist
                 &&
                 match parent with
                 | Some (Xtype.Seq _) | Some (Xtype.Elem _) -> true
                 | _ -> false
               then push (Union_dist { tname; loc }));
              if want K_union_factor then push (Union_factor { tname; loc });
              if
                want K_union_opts
                && Rewrite.inlinable_position schema ~tname ~loc
              then push (Union_opts { tname; loc })
          | Xtype.Rep (Xtype.Ref target, o) ->
              if
                want K_rep_split && o.lo >= 1
                &&
                match o.hi with
                | Xtype.Bounded n -> n > 1
                | Xtype.Unbounded -> true
              then push (Rep_split { tname; loc; target })
          | Xtype.Seq _ ->
              if want K_rep_merge then push (Rep_merge { tname; loc })
          | Xtype.Choice _ | Xtype.Empty | Xtype.Scalar _ | Xtype.Attr _
          | Xtype.Rep _ ->
              ());
          List.rev !steps)
        (Xtype.locations body))
    live

let neighbors ?(kinds = default_kinds) schema =
  List.filter_map
    (fun step ->
      match apply schema step with
      | schema' -> Some (step, schema')
      | exception Rewrite.Not_applicable _ -> None)
    (candidates kinds schema)

let applicable ?(kinds = default_kinds) schema =
  List.map fst (neighbors ~kinds schema)
