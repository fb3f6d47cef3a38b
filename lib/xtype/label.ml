type t = Name of string | Any | Any_except of string list

let matches label tag =
  match label with
  | Name n -> String.equal n tag
  | Any -> true
  | Any_except excl -> not (List.exists (String.equal tag) excl)

let remove label tag =
  match label with
  | Name n -> if String.equal n tag then None else Some label
  | Any -> Some (Any_except [ tag ])
  | Any_except excl ->
      if List.exists (String.equal tag) excl then Some label
      else Some (Any_except (List.sort String.compare (tag :: excl)))

let equal a b =
  match (a, b) with
  | Name x, Name y -> String.equal x y
  | Any, Any -> true
  | Any_except x, Any_except y ->
      List.sort String.compare x = List.sort String.compare y
  | (Name _ | Any | Any_except _), _ -> false

let to_string = function
  | Name n -> n
  | Any -> "~"
  | Any_except excl -> "~!" ^ String.concat "," excl

let pp fmt l = Format.pp_print_string fmt (to_string l)

let column_name = function Name n -> n | Any | Any_except _ -> "tilde"
