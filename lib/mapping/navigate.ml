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
let content_at m ty prefix =
  match Mapping.find_def m ty with
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
    (* an element-rooted type is matched by its root element alone (its
       label, and whether its content is scalar) *)
    match Mapping.find_root m n with
    | Mapping.Undefined -> acc
    | Mapping.Rooted e ->
        if Label.matches e.label step then
          found_elem m ~hops:(hops @ [ n ]) ~ty:n [] step e :: acc
        else acc
    | Mapping.Unrooted body ->
        if Mapping.is_transparent m.schema n then
          (* no table of its own: look through to its references *)
          find_in m ~visited ~hops ~ty:n ~prefix:[] step body acc
        else
          (* a type without a root element splices its content into
             the parent's element: match inside it *)
          find_in m ~visited ~hops:(hops @ [ n ]) ~ty:n ~prefix:[] step body
            acc

(* When a step matches both a concretely named element and a wildcard at
   the same content level, prefer the named element (the unique-particle
   intuition of XML Schema; a wildcard sibling could in principle carry
   the same tag, but queries mean the declared element). *)
let prefer_named founds =
  let named =
    List.filter (function F_wild _ -> false | F_elem _ | F_column _ -> true) founds
  in
  if named <> [] then named else founds

(* Each answer once, at its first occurrence: the branches of a union
   that share a position or a table (union factoring after distribution)
   reach it once per branch, and a query must read it once. *)
let distinct answers =
  List.rev
    (List.fold_left
       (fun seen a -> if List.mem a seen then seen else a :: seen)
       [] answers)

let step_from (m : Mapping.t) place step =
  prefer_named
    (distinct
       (List.concat_map
          (fun content ->
            List.rev
              (find_in m ~visited:[] ~hops:[] ~ty:place.ty
                 ~prefix:place.prefix step content []))
          (content_at m place.ty place.prefix)))

let root_step (m : Mapping.t) step =
  prefer_named
    (distinct
       (List.rev
          (enter m ~visited:[] ~hops:[] step (Xschema.root m.schema) [])))

let descendants (m : Mapping.t) place =
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
      match Mapping.find_def m n with
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
    (content_at m place.ty place.prefix);
  distinct (List.rev !out)

(* ------------------------------------------------------------------ *)
(* navigations as reads                                                 *)
(* ------------------------------------------------------------------ *)

(* Under a recording view each navigation is logged as one read: the
   call, its answer, and the reads that answered it.  A derived mapping
   answers it the same when none of those reads changed, or else when
   asking again gives the same answer — so a rewriting that changes a
   body a navigation read, but not what the navigation found, keeps a
   translation. *)
type Mapping.call +=
  | Root_step of string * found list * Mapping.reads
  | Step of place * string * found list * Mapping.reads
  | Descendants of place * string list list * Mapping.reads

let logged m ask call =
  if Mapping.recording m then begin
    let answer, reads = Mapping.record m ask in
    Mapping.note_call m (call answer reads);
    answer
  end
  else ask m

let enter_root m step =
  logged m (fun m -> root_step m step) (fun a r -> Root_step (step, a, r))

let navigate m place step =
  logged m
    (fun m -> step_from m place step)
    (fun a r -> Step (place, step, a, r))

let descendant_tables m place =
  logged m (fun m -> descendants m place) (fun a r -> Descendants (place, a, r))

let navigate_path m founds path =
  List.fold_left
    (fun frontier step ->
      distinct
        (List.concat_map
           (function
             | F_elem { hops; place } ->
                 List.map
                   (function
                     | F_elem f -> F_elem { f with hops = hops @ f.hops }
                     | F_column f -> F_column { f with hops = hops @ f.hops }
                     | F_wild f -> F_wild { f with hops = hops @ f.hops })
                   (navigate m place step)
             | F_column _ | F_wild _ -> [])
           frontier))
    founds path

let recheck m reads =
  let again = ref false in
  (* a navigation whose own reads changed is asked again; the same
     answer keeps the call, with the reads that answered it now *)
  let same call r ask answer renew =
    if Mapping.unchanged m r then Some call
    else
      let answer', r' = Mapping.record m ask in
      if answer' = answer then begin
        again := true;
        Some (renew r')
      end
      else None
  in
  if not (Mapping.unchanged m reads) then None
  else
    let calls =
      List.map
        (fun c ->
          match c with
          | Root_step (step, a, r) ->
              same c r (fun m -> root_step m step) a (fun r ->
                  Root_step (step, a, r))
          | Step (place, step, a, r) ->
              same c r (fun m -> step_from m place step) a (fun r ->
                  Step (place, step, a, r))
          | Descendants (place, a, r) ->
              same c r (fun m -> descendants m place) a (fun r ->
                  Descendants (place, a, r))
          | _ -> None)
        (Mapping.calls reads)
    in
    if List.exists Option.is_none calls then None
    else if !again then
      Some (Mapping.with_calls reads (List.map Option.get calls))
    else Some reads

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
