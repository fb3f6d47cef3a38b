type t = R_int | R_string of int option

let default_string_width = 32

let width = function
  | R_int -> 4
  | R_string (Some n) -> n
  | R_string None -> default_string_width

let pp fmt = function
  | R_int -> Format.pp_print_string fmt "INT"
  | R_string (Some n) -> Format.fprintf fmt "CHAR(%d)" n
  | R_string None -> Format.pp_print_string fmt "STRING"

let to_sql t = Format.asprintf "%a" pp t

type value = V_int of int | V_string of string | V_null

let value_equal a b =
  match (a, b) with
  | V_int x, V_int y -> x = y
  | V_string x, V_string y -> String.equal x y
  | V_null, V_null -> true
  | (V_int _ | V_string _ | V_null), _ -> false

let compare_value a b =
  match (a, b) with
  | V_null, V_null -> 0
  | V_null, _ -> -1
  | _, V_null -> 1
  | V_int x, V_int y -> Int.compare x y
  | V_int _, V_string _ -> -1
  | V_string _, V_int _ -> 1
  | V_string x, V_string y -> String.compare x y

let value_width = function
  | V_int _ -> 4
  | V_string s -> String.length s
  | V_null -> 1

let is_null = function V_null -> true | V_int _ | V_string _ -> false

let pp_value fmt = function
  | V_int n -> Format.pp_print_int fmt n
  | V_string s -> Format.pp_print_string fmt s
  | V_null -> Format.pp_print_string fmt "NULL"

let value_to_sql = function
  | V_int n -> string_of_int n
  | V_null -> "NULL"
  | V_string s ->
      let buf = Buffer.create (String.length s + 2) in
      Buffer.add_char buf '\'';
      String.iter
        (fun c ->
          if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
        s;
      Buffer.add_char buf '\'';
      Buffer.contents buf
