type t = (Xq_ast.t * float) list

let total_weight w = List.fold_left (fun acc (_, x) -> acc +. x) 0. w

let normalize w =
  let total = total_weight w in
  if total <= 0. then w else List.map (fun (q, x) -> (q, x /. total)) w

let of_queries qs =
  let n = List.length qs in
  if n = 0 then []
  else List.map (fun q -> (q, 1. /. float_of_int n)) qs

let mix k a b =
  let a = normalize a and b = normalize b in
  List.map (fun (q, x) -> (q, k *. x)) a
  @ List.map (fun (q, x) -> (q, (1. -. k) *. x)) b

let queries w = List.map fst w
