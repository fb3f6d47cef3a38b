module SMap = Map.Make (String)
module SSet = Set.Make (String)

type defn = { name : string; body : Xtype.t }

type t = { root : string; order : string list; index : Xtype.t SMap.t }

let make ~root defn_list =
  let index =
    List.fold_left
      (fun m { name; body } ->
        if SMap.mem name m then
          invalid_arg (Printf.sprintf "Xschema.make: duplicate type %s" name)
        else SMap.add name body m)
      SMap.empty defn_list
  in
  { root; order = List.map (fun d -> d.name) defn_list; index }

let root s = s.root

let defs s =
  List.map (fun name -> { name; body = SMap.find name s.index }) s.order

let find s name = SMap.find name s.index
let find_opt s name = SMap.find_opt name s.index
let mem s name = SMap.mem name s.index

let add s name body =
  if SMap.mem name s.index then
    invalid_arg (Printf.sprintf "Xschema.add: duplicate type %s" name)
  else
    { s with order = s.order @ [ name ]; index = SMap.add name body s.index }

let update s name body =
  if not (SMap.mem name s.index) then raise Not_found
  else { s with index = SMap.add name body s.index }

let remove s name =
  {
    s with
    order = List.filter (fun n -> not (String.equal n name)) s.order;
    index = SMap.remove name s.index;
  }

let fresh_name s base =
  let rec go candidate =
    if SMap.mem candidate s.index then go (candidate ^ "'") else candidate
  in
  go base

let reachable s =
  let seen = Hashtbl.create 64 and order = ref [] in
  let rec visit name =
    if not (Hashtbl.mem seen name) then
      match SMap.find_opt name s.index with
      | None -> ()
      | Some body ->
          Hashtbl.add seen name ();
          order := name :: !order;
          List.iter visit (Xtype.refs body)
  in
  visit s.root;
  List.rev !order

let gc s =
  let live = SSet.of_list (reachable s) in
  {
    s with
    order = List.filter (fun n -> SSet.mem n live) s.order;
    index = SMap.filter (fun n _ -> SSet.mem n live) s.index;
  }

let use_count s name =
  let live = reachable s in
  List.fold_left
    (fun n def_name ->
      let body = SMap.find def_name s.index in
      n
      + List.length (List.filter (String.equal name) (Xtype.refs body)))
    0 live

let referrers s =
  (* one pass over the bodies, last definition first, so each name's
     list comes out in definition order; a body that references a name
     twice is consed once, and its own name is then the list's head *)
  let index = Hashtbl.create (2 * SMap.cardinal s.index) in
  List.iter
    (fun def_name ->
      List.iter
        (fun r ->
          match Hashtbl.find_opt index r with
          | Some (d :: _) when String.equal d def_name -> ()
          | Some l -> Hashtbl.replace index r (def_name :: l)
          | None -> Hashtbl.replace index r [ def_name ])
        (Xtype.refs (SMap.find def_name s.index)))
    (List.rev s.order);
  fun name -> Option.value ~default:[] (Hashtbl.find_opt index name)

let redefined a b =
  (* one ordered walk over both indexes *)
  let rec walk acc sa sb =
    match (sa, sb) with
    | Seq.Nil, Seq.Nil -> List.rev acc
    | Seq.Cons ((n, _), ra), Seq.Nil -> walk (n :: acc) (ra ()) Seq.Nil
    | Seq.Nil, Seq.Cons ((n, _), rb) -> walk (n :: acc) Seq.Nil (rb ())
    | Seq.Cons ((na, ba), ra), Seq.Cons ((nb, bb), rb) ->
        let c = String.compare na nb in
        if c < 0 then walk (na :: acc) (ra ()) sb
        else if c > 0 then walk (nb :: acc) sa (rb ())
        else walk (if ba == bb then acc else na :: acc) (ra ()) (rb ())
  in
  walk [] (SMap.to_seq a.index ()) (SMap.to_seq b.index ())

let recursive s name =
  (* is there a cycle through [name] in the ref graph? *)
  let rec reaches seen from =
    match SMap.find_opt from s.index with
    | None -> false
    | Some body ->
        let targets = Xtype.refs body in
        List.exists (String.equal name) targets
        || List.exists
             (fun n -> (not (SSet.mem n seen)) && reaches (SSet.add n seen) n)
             targets
  in
  reaches (SSet.singleton name) name

let check s =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun m -> errors := m :: !errors) fmt in
  if not (SMap.mem s.root s.index) then err "root type %s is not defined" s.root;
  List.iter
    (fun name ->
      let body = SMap.find name s.index in
      List.iter
        (fun r ->
          if not (SMap.mem r s.index) then
            err "type %s references undefined type %s" name r)
        (Xtype.refs body))
    s.order;
  (* reject unguarded recursion: a cycle of refs never crossing an element *)
  let rec unguarded visiting name =
    if SSet.mem name visiting then true
    else
      match SMap.find_opt name s.index with
      | None -> false
      | Some body ->
          let visiting = SSet.add name visiting in
          let rec top_refs t =
            (* refs not under an element boundary *)
            match t with
            | Xtype.Ref n -> [ n ]
            | Xtype.Elem _ -> []
            | Xtype.Empty | Xtype.Scalar _ -> []
            | Xtype.Attr (_, u) | Xtype.Rep (u, _) -> top_refs u
            | Xtype.Seq ts | Xtype.Choice ts -> List.concat_map top_refs ts
          in
          List.exists (unguarded visiting) (top_refs body)
  in
  List.iter
    (fun name ->
      if unguarded SSet.empty name then
        err "type %s is recursive without an element boundary" name)
    s.order;
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let rec nullable s t =
  match t with
  | Xtype.Ref n -> (
      match SMap.find_opt n s.index with
      | Some body -> nullable s body
      | None -> false)
  | Xtype.Empty -> true
  | Xtype.Scalar _ | Xtype.Attr _ | Xtype.Elem _ -> false
  | Xtype.Seq ts -> List.for_all (nullable s) ts
  | Xtype.Choice ts -> List.exists (nullable s) ts
  | Xtype.Rep (u, o) -> o.Xtype.lo = 0 || nullable s u

let rec expand ?(depth = 1) s t =
  if depth <= 0 then t
  else
    match t with
    | Xtype.Ref n -> (
        match SMap.find_opt n s.index with
        | Some body -> expand ~depth:(depth - 1) s body
        | None -> t)
    | Xtype.Empty | Xtype.Scalar _ -> t
    | Xtype.Attr (n, u) -> Xtype.Attr (n, expand ~depth s u)
    | Xtype.Elem e -> Xtype.Elem { e with content = expand ~depth s e.content }
    | Xtype.Seq ts -> Xtype.seq (List.map (expand ~depth s) ts)
    | Xtype.Choice ts -> Xtype.choice (List.map (expand ~depth s) ts)
    | Xtype.Rep (u, o) -> Xtype.rep (expand ~depth s u) o

let equal a b =
  String.equal a.root b.root
  && SMap.cardinal a.index = SMap.cardinal b.index
  && SMap.for_all
       (fun name body ->
         match SMap.find_opt name b.index with
         | Some body' -> Xtype.equal body body'
         | None -> false)
       a.index

let pp_gen pp_body fmt s =
  List.iter
    (fun name ->
      Format.fprintf fmt "@[<hov 2>type %s =@ %a@]@." name pp_body
        (SMap.find name s.index))
    s.order

let pp = pp_gen Xtype.pp
let pp_with_stats = pp_gen Xtype.pp_with_stats
let to_string s = Format.asprintf "%a" pp s
