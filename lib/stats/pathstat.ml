type stat =
  | STcnt of int
  | STsize of int
  | STbase of int * int * int
  | STdistinct of int

type entry = {
  count : int option;
  size : int option;
  base : (int * int * int) option;
  distinct : int option;
}

let empty_entry = { count = None; size = None; base = None; distinct = None }

module PMap = Map.Make (struct
  type t = string list

  let compare = compare
end)

type t = entry PMap.t

let empty = PMap.empty

let add m path stat =
  let e = Option.value ~default:empty_entry (PMap.find_opt path m) in
  let e =
    match stat with
    | STcnt n -> { e with count = Some n }
    | STsize n -> { e with size = Some n }
    | STbase (lo, hi, d) -> { e with base = Some (lo, hi, d) }
    | STdistinct n -> { e with distinct = Some n }
  in
  PMap.add path e m

let of_list l = List.fold_left (fun m (p, s) -> add m p s) empty l
let find m path = PMap.find_opt path m
let count m path = Option.bind (find m path) (fun e -> e.count)
let size m path = Option.bind (find m path) (fun e -> e.size)

let children m path =
  let n = List.length path in
  PMap.fold
    (fun p e acc ->
      if List.length p = n + 1 && List.filteri (fun i _ -> i < n) p = path then
        (List.nth p n, e) :: acc
      else acc)
    m []
  |> List.rev

let paths m = PMap.fold (fun p _ acc -> p :: acc) m [] |> List.rev

let merge_entry a b =
  let add_opt x y =
    match (x, y) with
    | Some x, Some y -> Some (x + y)
    | (Some _ as r), None | None, (Some _ as r) -> r
    | None, None -> None
  in
  let count = add_opt a.count b.count in
  let size =
    match (a.size, b.size, a.count, b.count) with
    | Some s1, Some s2, Some c1, Some c2 when c1 + c2 > 0 ->
        Some (((s1 * c1) + (s2 * c2)) / (c1 + c2))
    | Some s1, Some s2, _, _ -> Some ((s1 + s2) / 2)
    | (Some _ as r), None, _, _ | None, (Some _ as r), _, _ -> r
    | None, None, _, _ -> None
  in
  let base =
    match (a.base, b.base) with
    | Some (l1, h1, d1), Some (l2, h2, d2) ->
        Some (min l1 l2, max h1 h2, max d1 d2)
    | (Some _ as r), None | None, (Some _ as r) -> r
    | None, None -> None
  in
  let distinct =
    match (a.distinct, b.distinct) with
    | Some x, Some y -> Some (max x y)
    | (Some _ as r), None | None, (Some _ as r) -> r
    | None, None -> None
  in
  { count; size; base; distinct }

let merge a b =
  PMap.union (fun _ ea eb -> Some (merge_entry ea eb)) a b

let pp fmt m =
  PMap.iter
    (fun path e ->
      Format.fprintf fmt "@[([%s]" (String.concat ";" path);
      Option.iter (fun n -> Format.fprintf fmt ", STcnt(%d)" n) e.count;
      Option.iter (fun n -> Format.fprintf fmt ", STsize(%d)" n) e.size;
      Option.iter
        (fun (lo, hi, d) -> Format.fprintf fmt ", STbase(%d,%d,%d)" lo hi d)
        e.base;
      Option.iter (fun n -> Format.fprintf fmt ", STdistinct(%d)" n) e.distinct;
      Format.fprintf fmt ")@]@.")
    m
