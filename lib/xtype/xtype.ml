type bound = Bounded of int | Unbounded

type occurs = { lo : int; hi : bound }

let occ lo hi = { lo; hi }
let opt = { lo = 0; hi = Bounded 1 }
let star = { lo = 0; hi = Unbounded }
let plus = { lo = 1; hi = Unbounded }
let once = { lo = 1; hi = Bounded 1 }

let occurs_equal a b =
  a.lo = b.lo
  &&
  match (a.hi, b.hi) with
  | Bounded x, Bounded y -> x = y
  | Unbounded, Unbounded -> true
  | Bounded _, Unbounded | Unbounded, Bounded _ -> false

let pp_occurs fmt o =
  match (o.lo, o.hi) with
  | 0, Bounded 1 -> Format.pp_print_string fmt "?"
  | 0, Unbounded -> Format.pp_print_string fmt "*"
  | 1, Unbounded -> Format.pp_print_string fmt "+"
  | lo, Unbounded -> Format.fprintf fmt "{%d,*}" lo
  | lo, Bounded hi -> Format.fprintf fmt "{%d,%d}" lo hi

type scalar_kind = String_t | Integer_t

type scalar_stats = {
  width : int;
  s_min : int option;
  s_max : int option;
  distinct : int option;
}

let scalar_kind_equal a b =
  match (a, b) with
  | String_t, String_t | Integer_t, Integer_t -> true
  | (String_t | Integer_t), _ -> false

let default_width = function String_t -> 32 | Integer_t -> 4

let scalar_ok kind text =
  match kind with
  | String_t -> true
  | Integer_t -> Option.is_some (Legodb_xml.Xml.int_of_text text)

type ann = { count : float option; labels : (string * float) list }

type t =
  | Empty
  | Scalar of scalar_kind * scalar_stats option
  | Attr of string * t
  | Elem of elem
  | Seq of t list
  | Choice of t list
  | Rep of t * occurs
  | Ref of string

and elem = { label : Label.t; content : t; ann : ann }

let no_ann = { count = None; labels = [] }

let scalar kind = Scalar (kind, None)
let string_ = scalar String_t
let integer = scalar Integer_t
let attr name t = Attr (name, t)
let elem ?(ann = no_ann) label content = Elem { label; content; ann }
let named_elem ?ann name content = elem ?ann (Label.Name name) content
let ref_ name = Ref name

let seq items =
  let rec flatten = function
    | [] -> []
    | Empty :: rest -> flatten rest
    | Seq inner :: rest -> flatten inner @ flatten rest
    | t :: rest -> t :: flatten rest
  in
  match flatten items with [] -> Empty | [ t ] -> t | ts -> Seq ts

let choice items =
  let rec flatten = function
    | [] -> []
    | Choice inner :: rest -> flatten inner @ flatten rest
    | t :: rest -> t :: flatten rest
  in
  match flatten items with [] -> Empty | [ t ] -> t | ts -> Choice ts

let mult_bound a b =
  match (a, b) with
  | Bounded x, Bounded y -> Bounded (x * y)
  | (Unbounded | Bounded _), Unbounded | Unbounded, Bounded _ -> Unbounded

let rec rep t occurs =
  match t with
  | _ when occurs_equal occurs once -> t
  | Empty -> Empty
  | Rep (inner, o2) ->
      (* collapse nested repetitions by multiplying bounds; sound when the
         outer repetition's contribution to counting is interval-like,
         which holds for the {0/1, n/*} shapes rewritings produce *)
      rep inner { lo = occurs.lo * o2.lo; hi = mult_bound occurs.hi o2.hi }
  | Scalar _ | Attr _ | Elem _ | Seq _ | Choice _ | Ref _ -> Rep (t, occurs)

let optional t = rep t opt

let rec equal_gen ~strict a b =
  match (a, b) with
  | Empty, Empty -> true
  | Scalar (k1, s1), Scalar (k2, s2) ->
      scalar_kind_equal k1 k2 && ((not strict) || s1 = s2)
  | Attr (n1, t1), Attr (n2, t2) ->
      String.equal n1 n2 && equal_gen ~strict t1 t2
  | Elem e1, Elem e2 ->
      Label.equal e1.label e2.label
      && equal_gen ~strict e1.content e2.content
      && ((not strict) || e1.ann = e2.ann)
  | Seq l1, Seq l2 | Choice l1, Choice l2 ->
      List.length l1 = List.length l2
      && List.for_all2 (equal_gen ~strict) l1 l2
  | Rep (t1, o1), Rep (t2, o2) -> occurs_equal o1 o2 && equal_gen ~strict t1 t2
  | Ref n1, Ref n2 -> String.equal n1 n2
  | (Empty | Scalar _ | Attr _ | Elem _ | Seq _ | Choice _ | Rep _ | Ref _), _
    ->
      false

let equal = equal_gen ~strict:false
let equal_strict = equal_gen ~strict:true

let children = function
  | Empty | Scalar _ | Ref _ -> []
  | Attr (_, t) | Elem { content = t; _ } | Rep (t, _) -> [ t ]
  | Seq ts | Choice ts -> ts

let rec size t = 1 + List.fold_left (fun n c -> n + size c) 0 (children t)

let rec refs t =
  match t with
  | Ref n -> [ n ]
  | _ -> List.concat_map refs (children t)

let rec elements t =
  match t with
  | Elem e -> e :: elements e.content
  | _ -> List.concat_map elements (children t)

let rec nullable = function
  | Empty -> true
  | Scalar (String_t, _) -> false
  | Scalar (Integer_t, _) -> false
  | Attr _ | Elem _ | Ref _ -> false
  | Seq ts -> List.for_all nullable ts
  | Choice ts -> List.exists nullable ts
  | Rep (t, o) -> o.lo = 0 || nullable t

let rec map_ref f t =
  match t with
  | Ref n -> Ref (f n)
  | Empty | Scalar _ -> t
  | Attr (n, u) -> Attr (n, map_ref f u)
  | Elem e -> Elem { e with content = map_ref f e.content }
  | Seq ts -> Seq (List.map (map_ref f) ts)
  | Choice ts -> Choice (List.map (map_ref f) ts)
  | Rep (u, o) -> Rep (map_ref f u, o)

let scale_ann factor ann =
  {
    count = Option.map (fun c -> c *. factor) ann.count;
    labels = List.map (fun (l, c) -> (l, c *. factor)) ann.labels;
  }

let rec scale_counts factor t =
  match t with
  | Empty | Ref _ -> t
  | Scalar (k, Some st) ->
      let distinct =
        Option.map
          (fun d -> max 1 (int_of_float (Float.round (float_of_int d *. factor))))
          st.distinct
      in
      Scalar (k, Some { st with distinct })
  | Scalar (_, None) -> t
  | Attr (n, u) -> Attr (n, scale_counts factor u)
  | Elem e ->
      Elem
        {
          e with
          ann = scale_ann factor e.ann;
          content = scale_counts factor e.content;
        }
  | Seq ts -> Seq (List.map (scale_counts factor) ts)
  | Choice ts -> Choice (List.map (scale_counts factor) ts)
  | Rep (u, o) -> Rep (scale_counts factor u, o)

type loc = int list

let rec subterm t loc =
  match loc with
  | [] -> Some t
  | i :: rest -> (
      match List.nth_opt (children t) i with
      | Some c -> subterm c rest
      | None -> None)

let rec replace t loc u =
  match loc with
  | [] -> u
  | i :: rest -> (
      let replace_nth ts =
        if i < 0 || i >= List.length ts then
          invalid_arg "Xtype.replace: location out of range"
        else List.mapi (fun j c -> if j = i then replace c rest u else c) ts
      in
      match t with
      | Empty | Scalar _ | Ref _ ->
          invalid_arg "Xtype.replace: location into a leaf"
      | Attr (n, c) ->
          if i <> 0 then invalid_arg "Xtype.replace: bad attr index"
          else Attr (n, replace c rest u)
      | Elem e ->
          if i <> 0 then invalid_arg "Xtype.replace: bad elem index"
          else Elem { e with content = replace e.content rest u }
      | Rep (c, o) ->
          if i <> 0 then invalid_arg "Xtype.replace: bad rep index"
          else rep (replace c rest u) o
      | Seq ts -> seq (replace_nth ts)
      | Choice ts -> choice (replace_nth ts))

let locations t =
  let rec go rev_loc t acc =
    let here = (List.rev rev_loc, t) in
    let acc =
      List.fold_left
        (fun acc (i, c) -> go (i :: rev_loc) c acc)
        acc
        (List.mapi (fun i c -> (i, c)) (children t) |> List.rev)
    in
    here :: acc
  in
  go [] t []

(* -- printing ---------------------------------------------------------- *)

(* Each stat slot is printed even when absent ("#?") so the notation is
   unambiguous and parses back (see Xtype_parse). *)
let pp_scalar_stats fmt (kind, st) =
  match st with
  | None -> ()
  | Some st -> (
      let pp_opt fmt = function
        | Some v -> Format.fprintf fmt ",#%d" v
        | None -> Format.pp_print_string fmt ",#?"
      in
      match kind with
      | String_t ->
          Format.fprintf fmt "<#%d%a>" st.width pp_opt st.distinct
      | Integer_t ->
          Format.fprintf fmt "<#%d%a%a%a>" st.width pp_opt st.s_min pp_opt
            st.s_max pp_opt st.distinct)

let pp_gen ~stats fmt t =
  let rec go fmt t =
    match t with
    | Empty -> Format.pp_print_string fmt "()"
    | Scalar (String_t, st) ->
        Format.pp_print_string fmt "String";
        if stats then pp_scalar_stats fmt (String_t, st)
    | Scalar (Integer_t, st) ->
        Format.pp_print_string fmt "Integer";
        if stats then pp_scalar_stats fmt (Integer_t, st)
    | Attr (n, u) -> Format.fprintf fmt "@[@%s[ %a ]@]" n go u
    | Elem e ->
        Format.fprintf fmt "@[%a[ %a ]@]" Label.pp e.label go e.content;
        if stats then
          Option.iter (fun c -> Format.fprintf fmt "<#%.0f>" c) e.ann.count
    | Seq ts ->
        Format.pp_open_box fmt 0;
        List.iteri
          (fun i u ->
            if i > 0 then Format.fprintf fmt ",@ ";
            go fmt u)
          ts;
        Format.pp_close_box fmt ()
    | Choice ts ->
        Format.pp_open_box fmt 1;
        Format.pp_print_string fmt "(";
        List.iteri
          (fun i u ->
            if i > 0 then Format.fprintf fmt "@ | ";
            go fmt u)
          ts;
        Format.pp_print_string fmt ")";
        Format.pp_close_box fmt ()
    | Rep (u, o) ->
        (match u with
        | Seq _ -> Format.fprintf fmt "(%a)" go u
        | _ -> go fmt u);
        pp_occurs fmt o
    | Ref n -> Format.pp_print_string fmt n
  in
  go fmt t

let pp = pp_gen ~stats:false
let pp_with_stats = pp_gen ~stats:true
let to_string t = Format.asprintf "%a" pp t
