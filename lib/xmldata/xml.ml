type t =
  | Element of string * (string * string) list * t list
  | Text of string

let elem ?(attrs = []) tag children = Element (tag, attrs, children)
let text s = Text s
let leaf ?(attrs = []) tag s = Element (tag, attrs, [ Text s ])

let tag = function Element (t, _, _) -> Some t | Text _ -> None
let attributes = function Element (_, a, _) -> a | Text _ -> []
let children = function Element (_, _, c) -> c | Text _ -> []

let attribute name node =
  List.assoc_opt name (attributes node)

let element_children node =
  List.filter (function Element _ -> true | Text _ -> false) (children node)

let rec text_content = function
  | Text s | Element (_, _, [ Text s ]) -> s
  | Element (_, _, c) -> String.concat "" (List.map text_content c)

(* the digits s.[i..n-1] as a number, or -1 at the first non-digit *)
let rec decimal s i n v =
  if i = n then v
  else
    match s.[i] with
    | '0' .. '9' as c -> decimal s (i + 1) n ((v * 10) + Char.code c - 48)
    | _ -> -1

(* a byte [int_of_string] can accept (a digit of some base, a sign, a
   base prefix or '_'), or one the pipeline below removes first *)
let rec maybe_int s i =
  i = String.length s
  ||
  match s.[i] with
  | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' | 'x' | 'X' | 'o' | 'O' | 'u' | 'U'
  | '_' | '+' | '-' | ',' | ' ' | '\012' | '\n' | '\r' | '\t' ->
      maybe_int s (i + 1)
  | _ -> false

(* Plain decimal text (an optional '-' and at most 18 digits, which
   cannot overflow) is read in place, and text with a byte no integer
   can contain is rejected in place; anything else goes through the
   general pipeline: trim, drop ',', [int_of_string_opt]. *)
let int_of_text s =
  let n = String.length s in
  let first = if n > 0 && s.[0] = '-' then 1 else 0 in
  let v = if n > first && n - first <= 18 then decimal s first n 0 else -1 in
  if v >= 0 then Some (if first = 1 then -v else v)
  else if not (maybe_int s 0) then None
  else
    String.to_seq (String.trim s)
    |> Seq.filter (fun c -> c <> ',')
    |> String.of_seq |> int_of_string_opt

let child_elements name node =
  List.filter
    (function Element (t, _, _) -> String.equal t name | Text _ -> false)
    (children node)

let first_child name node =
  match child_elements name node with [] -> None | c :: _ -> Some c

let fold f init doc =
  let rec go acc rev_path node =
    match node with
    | Text _ -> acc
    | Element (t, _, c) ->
        let rev_path = t :: rev_path in
        let acc = f acc (List.rev rev_path) node in
        List.fold_left (fun acc child -> go acc rev_path child) acc c
  in
  go init [] doc

let select path doc =
  let step nodes name =
    List.concat_map (child_elements name) nodes
  in
  match path with
  | [] -> []
  | root :: rest -> (
      match doc with
      | Element (t, _, _) when String.equal t root ->
          List.fold_left step [ doc ] rest
      | Element _ | Text _ -> [])

let count_elements doc = fold (fun n _ _ -> n + 1) 0 doc

let rec normalize node =
  match node with
  | Text _ -> node
  | Element (t, a, c) ->
      let c = List.map normalize c in
      (* merge adjacent text nodes, drop empty ones *)
      let rec merge = function
        | Text a :: Text b :: rest -> merge (Text (a ^ b) :: rest)
        | Text "" :: rest -> merge rest
        | x :: rest -> x :: merge rest
        | [] -> []
      in
      Element (t, a, merge c)

let rec equal_norm a b =
  match (a, b) with
  | Text x, Text y -> String.equal x y
  | Element (t1, a1, c1), Element (t2, a2, c2) ->
      String.equal t1 t2
      && List.length a1 = List.length a2
      && List.for_all2
           (fun (n1, v1) (n2, v2) -> String.equal n1 n2 && String.equal v1 v2)
           a1 a2
      && List.length c1 = List.length c2
      && List.for_all2 equal_norm c1 c2
  | Element _, Text _ | Text _, Element _ -> false

let equal a b = equal_norm (normalize a) (normalize b)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | '\'' -> Buffer.add_string buf "&apos;"
      | c -> Buffer.add_char buf c)
    s

let to_string doc =
  let buf = Buffer.create 1024 in
  let rec go = function
    | Text s -> escape buf s
    | Element (t, attrs, c) ->
        Buffer.add_char buf '<';
        Buffer.add_string buf t;
        List.iter
          (fun (n, v) ->
            Buffer.add_char buf ' ';
            Buffer.add_string buf n;
            Buffer.add_string buf "=\"";
            escape buf v;
            Buffer.add_char buf '"')
          attrs;
        if c = [] then Buffer.add_string buf "/>"
        else begin
          Buffer.add_char buf '>';
          List.iter go c;
          Buffer.add_string buf "</";
          Buffer.add_string buf t;
          Buffer.add_char buf '>'
        end
  in
  go (normalize doc);
  Buffer.contents buf

let rec pp fmt node =
  match node with
  | Text s -> Format.pp_print_string fmt s
  | Element (t, attrs, c) ->
      let pp_attr fmt (n, v) = Format.fprintf fmt " %s=%S" n v in
      let only_text = List.for_all (function Text _ -> true | _ -> false) c in
      if c = [] then
        Format.fprintf fmt "<%s%a/>" t (Format.pp_print_list pp_attr) attrs
      else if only_text then
        Format.fprintf fmt "<%s%a>%s</%s>" t
          (Format.pp_print_list pp_attr)
          attrs
          (text_content node)
          t
      else begin
        Format.fprintf fmt "@[<v 2><%s%a>" t
          (Format.pp_print_list pp_attr)
          attrs;
        List.iter (fun child -> Format.fprintf fmt "@,%a" pp child) c;
        Format.fprintf fmt "@]@,</%s>" t
      end
