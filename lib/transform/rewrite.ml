open Legodb_xtype

exception Not_applicable of string

let fail fmt = Format.kasprintf (fun m -> raise (Not_applicable m)) fmt

let get_body schema tname =
  match Xschema.find_opt schema tname with
  | Some b -> b
  | None -> fail "type %s is not defined" tname

let get_subterm body loc =
  match Xtype.subterm body loc with
  | Some t -> t
  | None -> fail "no sub-term at the given location"

let is_optional (o : Xtype.occurs) =
  o.lo = 0 && match o.hi with Xtype.Bounded 1 -> true | _ -> false

(* -- statistics helpers ------------------------------------------------ *)

module SSet = Set.Make (String)

let rec card_of_body read schema visiting t =
  match t with
  | Xtype.Elem e -> e.Xtype.ann.count
  | Xtype.Ref n ->
      if SSet.mem n visiting then None
      else begin
        read n;
        Option.bind (Xschema.find_opt schema n)
          (card_of_body read schema (SSet.add n visiting))
      end
  | Xtype.Choice ts ->
      let cards = List.filter_map (card_of_body read schema visiting) ts in
      if cards = [] then None else Some (List.fold_left ( +. ) 0. cards)
  | Xtype.Seq ts ->
      List.find_map (card_of_body read schema visiting) ts
  | Xtype.Rep (u, _) -> card_of_body read schema visiting u
  | Xtype.Empty | Xtype.Scalar _ | Xtype.Attr _ -> None

let card_of_def ?(read = ignore) schema name =
  read name;
  Option.bind (Xschema.find_opt schema name)
    (card_of_body read schema (SSet.singleton name))

(* Count of the first mandatory element of a type, following refs. *)
let rec first_count schema visiting t =
  match t with
  | Xtype.Elem e -> e.Xtype.ann.count
  | Xtype.Ref n ->
      if SSet.mem n visiting then None
      else
        Option.bind (Xschema.find_opt schema n)
          (first_count schema (SSet.add n visiting))
  | Xtype.Seq ts -> List.find_map (first_count schema visiting) ts
  | Xtype.Choice ts ->
      let cs = List.filter_map (first_count schema visiting) ts in
      if cs = [] then None else Some (List.fold_left ( +. ) 0. cs)
  | Xtype.Rep (u, o) ->
      if o.Xtype.lo >= 1 then first_count schema visiting u else None
  | Xtype.Empty | Xtype.Scalar _ | Xtype.Attr _ -> None

let branch_weights schema branches =
  let raw =
    List.map
      (fun b ->
        match first_count schema SSet.empty b with
        | Some c -> Some c
        | None -> card_of_body ignore schema SSet.empty b)
      branches
  in
  let known = List.filter_map Fun.id raw in
  if known = [] then
    let n = float_of_int (List.length branches) in
    List.map (fun _ -> 1. /. n) branches
  else
    let mean = List.fold_left ( +. ) 0. known /. float_of_int (List.length known) in
    let filled = List.map (Option.value ~default:mean) raw in
    let total = List.fold_left ( +. ) 0. filled in
    if total <= 0. then
      let n = float_of_int (List.length branches) in
      List.map (fun _ -> 1. /. n) branches
    else List.map (fun c -> c /. total) filled

let scale_elem_ann w (ann : Xtype.ann) =
  {
    Xtype.count = Option.map (fun c -> c *. w) ann.count;
    labels = List.map (fun (l, c) -> (l, c *. w)) ann.labels;
  }

(* Structural merge adding counts; both sides must be [Xtype.equal]. *)
let rec merge_counts a b =
  let add_opt x y =
    match (x, y) with
    | Some x, Some y -> Some (x +. y)
    | (Some _ as r), None | None, (Some _ as r) -> r
    | None, None -> None
  in
  match (a, b) with
  | Xtype.Scalar (k, s1), Xtype.Scalar (_, s2) ->
      let merged =
        match (s1, s2) with
        | Some x, Some y ->
            Some
              {
                Xtype.width = max x.Xtype.width y.Xtype.width;
                s_min =
                  (match (x.s_min, y.s_min) with
                  | Some a, Some b -> Some (min a b)
                  | (Some _ as r), None | None, (Some _ as r) -> r
                  | None, None -> None);
                s_max =
                  (match (x.s_max, y.s_max) with
                  | Some a, Some b -> Some (max a b)
                  | (Some _ as r), None | None, (Some _ as r) -> r
                  | None, None -> None);
                distinct =
                  (match (x.distinct, y.distinct) with
                  | Some a, Some b -> Some (a + b)
                  | (Some _ as r), None | None, (Some _ as r) -> r
                  | None, None -> None);
              }
        | (Some _ as r), None | None, (Some _ as r) -> r
        | None, None -> None
      in
      Xtype.Scalar (k, merged)
  | Xtype.Attr (n, u1), Xtype.Attr (_, u2) -> Xtype.Attr (n, merge_counts u1 u2)
  | Xtype.Elem e1, Xtype.Elem e2 ->
      let labels =
        List.fold_left
          (fun acc (l, c) ->
            match List.assoc_opt l acc with
            | Some c0 -> (l, c0 +. c) :: List.remove_assoc l acc
            | None -> (l, c) :: acc)
          e1.Xtype.ann.labels e2.Xtype.ann.labels
      in
      Xtype.Elem
        {
          e1 with
          content = merge_counts e1.content e2.content;
          ann = { Xtype.count = add_opt e1.ann.count e2.ann.count; labels };
        }
  | Xtype.Seq l1, Xtype.Seq l2 when List.length l1 = List.length l2 ->
      Xtype.Seq (List.map2 merge_counts l1 l2)
  | Xtype.Choice l1, Xtype.Choice l2 when List.length l1 = List.length l2 ->
      Xtype.Choice (List.map2 merge_counts l1 l2)
  | Xtype.Rep (u1, o), Xtype.Rep (u2, _) -> Xtype.Rep (merge_counts u1 u2, o)
  | _, _ -> a

(* -- positions --------------------------------------------------------- *)

let ancestors body loc =
  let rec go t loc acc =
    match loc with
    | [] -> List.rev acc
    | i :: rest -> (
        let children =
          match t with
          | Xtype.Empty | Xtype.Scalar _ | Xtype.Ref _ -> []
          | Xtype.Attr (_, u) | Xtype.Elem { content = u; _ } | Xtype.Rep (u, _)
            ->
              [ u ]
          | Xtype.Seq ts | Xtype.Choice ts -> ts
        in
        match List.nth_opt children i with
        | Some c -> go c rest (t :: acc)
        | None -> fail "no sub-term at the given location")
  in
  go body loc []

let inlinable_position schema ~tname ~loc =
  let body = get_body schema tname in
  List.for_all
    (fun t ->
      match t with
      | Xtype.Elem _ | Xtype.Seq _ -> true
      | Xtype.Rep (_, o) -> is_optional o
      | Xtype.Empty | Xtype.Scalar _ | Xtype.Attr _ | Xtype.Choice _
      | Xtype.Ref _ ->
          false)
    (ancestors body loc)

let enclosing_elem_count schema ~tname ~loc =
  let body = get_body schema tname in
  let enclosing =
    List.find_map
      (function
        | Xtype.Elem e -> e.Xtype.ann.count
        | _ -> None)
      (List.rev (ancestors body loc))
  in
  match enclosing with Some _ as c -> c | None -> card_of_def schema tname

(* Find the (unique) location of a physically-equal node. *)
let loc_of_node body node =
  match
    List.find_opt (fun (_, t) -> t == node) (Xtype.locations body)
  with
  | Some (loc, _) -> Some loc
  | None -> None

(* -- outlining / inlining ---------------------------------------------- *)

let type_name_base t =
  match t with
  | Xtype.Elem { label = Label.Name n; _ } -> String.capitalize_ascii n
  | Xtype.Elem _ -> "Wildcard"
  | Xtype.Scalar (Xtype.String_t, _) -> "String_data"
  | Xtype.Scalar (Xtype.Integer_t, _) -> "Integer_data"
  | _ -> "Part"

let outline_any ?name ~base schema ~tname ~loc =
  let body = get_body schema tname in
  let sub = get_subterm body loc in
  if loc = [] then fail "cannot outline the whole body of %s" tname;
  let nm = Xschema.fresh_name schema (Option.value ~default:base name) in
  let schema = Xschema.add schema nm sub in
  let schema = Xschema.update schema tname (Xtype.replace body loc (Xtype.Ref nm)) in
  (schema, nm)

let outline ?name schema ~tname ~loc =
  let body = get_body schema tname in
  match get_subterm body loc with
  | (Xtype.Elem _ | Xtype.Scalar _) as sub ->
      outline_any ?name ~base:(type_name_base sub) schema ~tname ~loc
  | _ -> fail "only elements and scalars can be outlined"

let inline_target schema ~tname ~loc =
  match Xtype.subterm (get_body schema tname) loc with
  | Some (Xtype.Ref n) -> Some n
  | Some _ | None -> None

let can_inline schema ~tname ~loc =
  match inline_target schema ~tname ~loc with
  | None -> false
  | Some n ->
      (not (String.equal n tname))
      && Xschema.mem schema n
      && Xschema.use_count schema n = 1
      && (not (Xschema.recursive schema n))
      && inlinable_position schema ~tname ~loc

let inline schema ~tname ~loc =
  if not (can_inline schema ~tname ~loc) then
    fail "reference not inlinable (shared, recursive, or in a named position)";
  let n = Option.get (inline_target schema ~tname ~loc) in
  let body = get_body schema tname in
  let schema = Xschema.update schema tname (Xtype.replace body loc (Xschema.find schema n)) in
  Xschema.remove schema n

(* -- unions ------------------------------------------------------------ *)

let union_to_options schema ~tname ~loc =
  let body = get_body schema tname in
  match get_subterm body loc with
  | Xtype.Choice ts ->
      if not (inlinable_position schema ~tname ~loc) then
        fail "the union is not in a physical position";
      Xschema.update schema tname
        (Xtype.replace body loc (Xtype.seq (List.map Xtype.optional ts)))
  | _ -> fail "no union at the given location"

let distribute_union schema ~tname ~loc =
  let body = get_body schema tname in
  let cs =
    match get_subterm body loc with
    | Xtype.Choice cs -> cs
    | _ -> fail "no union at the given location"
  in
  let ws = branch_weights schema cs in
  let parent_loc l = List.filteri (fun i _ -> i < List.length l - 1) l in
  (* Step 1: (a,(b|c)) == (a,b | a,c) when the union sits in a sequence. *)
  let body, loc, cs =
    if loc = [] then (body, loc, cs)
    else
      let ploc = parent_loc loc in
      match get_subterm body ploc with
      | Xtype.Seq ts ->
          let j = List.nth loc (List.length loc - 1) in
          let branches =
            List.map2
              (fun c w ->
                Xtype.seq
                  (List.mapi
                     (fun i it -> if i = j then c else Xtype.scale_counts w it)
                     ts))
              cs ws
          in
          let node = Xtype.choice branches in
          let body = Xtype.replace body ploc node in
          (match loc_of_node body node with
          | Some l -> (body, l, branches)
          | None -> fail "union distribution lost track of the rewritten union")
      | _ -> (body, loc, cs)
  in
  (* Step 2: a[t1|t2] == a[t1] | a[t2] when the union is an element's
     whole content. *)
  let body, loc, cs =
    if loc = [] then (body, loc, cs)
    else
      let ploc = parent_loc loc in
      match get_subterm body ploc with
      | Xtype.Elem e when List.length loc - List.length ploc = 1 ->
          let branches =
            List.map2
              (fun c w ->
                Xtype.Elem { e with content = c; ann = scale_elem_ann w e.ann })
              cs ws
          in
          let node = Xtype.choice branches in
          let body = Xtype.replace body ploc node in
          (match loc_of_node body node with
          | Some l -> (body, l, branches)
          | None -> fail "union distribution lost track of the rewritten union")
      | _ -> (body, loc, cs)
  in
  let schema = Xschema.update schema tname body in
  (* Step 3: outline every non-reference branch so the union mentions
     only type names. *)
  let n_branches = List.length cs in
  let rec outline_branches schema i =
    if i >= n_branches then schema
    else
      let body = get_body schema tname in
      match get_subterm body (loc @ [ i ]) with
      | Xtype.Ref _ -> outline_branches schema (i + 1)
      | sub ->
          let base =
            match sub with
            | Xtype.Elem { label = Label.Name n; _ } ->
                Printf.sprintf "%s_Part%d" (String.capitalize_ascii n) (i + 1)
            | _ -> Printf.sprintf "%s_Part%d" tname (i + 1)
          in
          let schema, _ = outline_any ~base schema ~tname ~loc:(loc @ [ i ]) in
          outline_branches schema (i + 1)
  in
  outline_branches schema 0

let factor_union schema ~tname ~loc =
  let body = get_body schema tname in
  let cs =
    match get_subterm body loc with
    | Xtype.Choice cs -> cs
    | _ -> fail "no union at the given location"
  in
  (* resolve refs one level for the element-merge case *)
  let resolved =
    List.map
      (fun c ->
        match c with
        | Xtype.Ref n -> (Xschema.find_opt schema n, c)
        | _ -> (Some c, c))
      cs
  in
  let as_elems =
    List.map
      (fun (r, orig) ->
        match r with Some (Xtype.Elem e) -> Some (e, orig) | _ -> None)
      resolved
  in
  if List.for_all Option.is_some as_elems then begin
    let elems = List.map Option.get as_elems in
    let (e0, _), rest = (List.hd elems, List.tl elems) in
    if not (List.for_all (fun (e, _) -> Label.equal e.Xtype.label e0.Xtype.label) rest)
    then fail "branches are elements with different labels";
    (* all refs must be exclusively used here *)
    let refs =
      List.filter_map
        (fun (_, orig) ->
          match orig with Xtype.Ref n -> Some n | _ -> None)
        elems
    in
    List.iter
      (fun n ->
        if Xschema.use_count schema n <> 1 then
          fail "branch type %s is shared and cannot be merged" n)
      refs;
    let contents = List.map (fun (e, _) -> e.Xtype.content) elems in
    let count =
      let counts = List.filter_map (fun (e, _) -> e.Xtype.ann.count) elems in
      match counts with [] -> None | cs -> Some (List.fold_left ( +. ) 0. cs)
    in
    let labels =
      List.concat_map (fun (e, _) -> e.Xtype.ann.labels) elems
      |> List.fold_left
           (fun acc (l, c) ->
             match List.assoc_opt l acc with
             | Some c0 -> (l, c0 +. c) :: List.remove_assoc l acc
             | None -> (l, c) :: acc)
           []
    in
    let merged =
      Xtype.Elem
        {
          e0 with
          content = Xtype.choice contents;
          ann = { Xtype.count; labels };
        }
    in
    let schema = Xschema.update schema tname (Xtype.replace body loc merged) in
    List.fold_left Xschema.remove schema refs
  end
  else
    (* sequence-head factorization: (a,b | a,c) == (a,(b|c)) *)
    let seqs =
      List.map
        (function
          | Xtype.Seq (h :: t) -> (h, t)
          | _ -> fail "branches are neither same-label elements nor sequences")
        cs
    in
    let (h0, _), rest = (List.hd seqs, List.tl seqs) in
    if not (List.for_all (fun (h, _) -> Xtype.equal h h0) rest) then
      fail "sequence branches do not share an equal head";
    let head = List.fold_left (fun acc (h, _) -> merge_counts acc h) h0 (List.tl seqs) in
    let tails = List.map (fun (_, t) -> Xtype.seq t) seqs in
    Xschema.update schema tname
      (Xtype.replace body loc (Xtype.seq [ head; Xtype.choice tails ]))

(* -- repetitions -------------------------------------------------------- *)

let dec (o : Xtype.occurs) =
  let hi =
    match o.hi with
    | Xtype.Bounded n -> Xtype.Bounded (n - 1)
    | Xtype.Unbounded -> Xtype.Unbounded
  in
  { Xtype.lo = max 0 (o.lo - 1); hi }

let inc (o : Xtype.occurs) =
  let hi =
    match o.hi with
    | Xtype.Bounded n -> Xtype.Bounded (n + 1)
    | Xtype.Unbounded -> Xtype.Unbounded
  in
  { Xtype.lo = o.lo + 1; hi }

let split_repetition schema ~tname ~loc =
  let body = get_body schema tname in
  match get_subterm body loc with
  | Xtype.Rep (inner, o) -> (
      if o.Xtype.lo < 1 then fail "repetition with a zero lower bound";
      (match o.Xtype.hi with
      | Xtype.Bounded n when n <= 1 -> fail "repetition already singular"
      | Xtype.Bounded _ | Xtype.Unbounded -> ());
      let parent_card = enclosing_elem_count schema ~tname ~loc in
      match inner with
      | Xtype.Ref n ->
          let total = card_of_def schema n in
          let f_first, f_rest =
            match (parent_card, total) with
            | Some p, Some c when c > 0. ->
                let f = Float.min 1. (Float.max 0. (p /. c)) in
                (f, 1. -. f)
            | _, _ -> (0.5, 0.5)
          in
          let n1 = Xschema.fresh_name schema (n ^ "_1") in
          let n_body = get_body schema n in
          let schema = Xschema.add schema n1 (Xtype.scale_counts f_first n_body) in
          let schema = Xschema.update schema n (Xtype.scale_counts f_rest n_body) in
          Xschema.update schema tname
            (Xtype.replace body loc
               (Xtype.seq [ Xtype.Ref n1; Xtype.rep (Xtype.Ref n) (dec o) ]))
      | Xtype.Elem _ ->
          let first = Xtype.scale_counts 0.5 inner in
          let rest = Xtype.rep (Xtype.scale_counts 0.5 inner) (dec o) in
          Xschema.update schema tname
            (Xtype.replace body loc (Xtype.seq [ first; rest ]))
      | _ -> fail "repetition content must be a type name or an element")
  | _ -> fail "no repetition at the given location"

let merge_repetition schema ~tname ~loc =
  let body = get_body schema tname in
  match get_subterm body loc with
  | Xtype.Seq ts ->
      let rec find i = function
        | a :: (Xtype.Rep (b, o) :: _ as rest_from_b) -> (
            let compatible =
              match (a, b) with
              | Xtype.Ref na, Xtype.Ref nb ->
                  String.equal na nb
                  || (Xschema.mem schema na && Xschema.mem schema nb
                     && Xtype.equal (Xschema.find schema na) (Xschema.find schema nb)
                     && Xschema.use_count schema na = 1)
              | Xtype.Elem _, Xtype.Elem _ -> Xtype.equal a b
              | _ -> false
            in
            if compatible then Some (i, a, b, o, rest_from_b)
            else find (i + 1) rest_from_b)
        | _ :: rest -> find (i + 1) rest
        | [] -> None
      in
      (match find 0 ts with
      | None -> fail "no adjacent singleton + repetition of equal types"
      | Some (i, a, b, o, _) ->
          let schema =
            match (a, b) with
            | Xtype.Ref na, Xtype.Ref nb when not (String.equal na nb) ->
                let merged =
                  merge_counts (Xschema.find schema nb) (Xschema.find schema na)
                in
                let schema = Xschema.update schema nb merged in
                Xschema.remove schema na
            | _ -> schema
          in
          let merged_item =
            match (a, b) with
            | Xtype.Elem _, Xtype.Elem _ ->
                Xtype.rep (merge_counts b a) (inc o)
            | _ -> Xtype.rep b (inc o)
          in
          let ts' =
            List.concat
              (List.mapi
                 (fun j it ->
                   if j = i then [ merged_item ]
                   else if j = i + 1 then []
                   else [ it ])
                 ts)
          in
          let body = Xschema.find schema tname in
          Xschema.update schema tname (Xtype.replace body loc (Xtype.seq ts')))
  | _ -> fail "no sequence at the given location"

(* -- wildcards ----------------------------------------------------------- *)

let materialize_wildcard schema ~tname ~loc ~tag =
  let body = get_body schema tname in
  match get_subterm body loc with
  | Xtype.Elem e -> (
      (match e.Xtype.label with
      | Label.Name _ -> fail "element label is not a wildcard"
      | Label.Any | Label.Any_except _ -> ());
      if not (Label.matches e.Xtype.label tag) then
        fail "the wildcard excludes tag %s" tag;
      match Label.remove e.Xtype.label tag with
      | None -> fail "nothing remains after removing %s" tag
      | Some rest_label ->
          let total = Option.value ~default:0. e.Xtype.ann.count in
          let tag_count =
            match List.assoc_opt tag e.Xtype.ann.labels with
            | Some c -> c
            | None -> if total > 0. then total /. 2. else 0.
          in
          let w = if total > 0. then Float.min 1. (tag_count /. total) else 0.5 in
          let e1 =
            Xtype.Elem
              {
                label = Label.Name tag;
                content = Xtype.scale_counts w e.Xtype.content;
                ann = { Xtype.count = Some tag_count; labels = [] };
              }
          in
          let e2 =
            Xtype.Elem
              {
                label = rest_label;
                content = Xtype.scale_counts (1. -. w) e.Xtype.content;
                ann =
                  {
                    Xtype.count = Some (Float.max 0. (total -. tag_count));
                    labels =
                      List.filter
                        (fun (l, _) -> not (String.equal l tag))
                        e.Xtype.ann.labels;
                  };
              }
          in
          let node = Xtype.choice [ e1; e2 ] in
          let body = Xtype.replace body loc node in
          let schema = Xschema.update schema tname body in
          let choice_loc =
            match loc_of_node body node with
            | Some l -> l
            | None -> fail "wildcard rewriting lost track of the union"
          in
          let schema, _ =
            outline_any
              ~base:(String.capitalize_ascii tag)
              schema ~tname ~loc:(choice_loc @ [ 0 ])
          in
          let schema, _ =
            outline_any ~base:("Other_" ^ tag) schema ~tname
              ~loc:(choice_loc @ [ 1 ])
          in
          schema)
  | _ -> fail "no element at the given location"
