type path = string list
type const = C_int of int | C_string of string
type source = Doc of path | Var_path of string * path
type operand = O_path of string * path | O_const of const | O_param of int
type pred = { left : string * path; right : operand }

type ret =
  | R_path of string * path
  | R_var of string
  | R_nested of flwr
  | R_elem of string * ret list

and flwr = {
  bindings : (string * source) list;
  where : pred list;
  return : ret list;
}

type t = { name : string; body : flwr }

let check q =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun m -> errors := m :: !errors) fmt in
  let rec go scope flwr =
    let scope =
      List.fold_left
        (fun scope (v, src) ->
          if List.mem v scope then err "variable $%s bound twice" v;
          (match src with
          | Doc _ -> ()
          | Var_path (w, _) ->
              if not (List.mem w scope) then err "unbound variable $%s" w);
          v :: scope)
        scope flwr.bindings
    in
    List.iter
      (fun p ->
        if not (List.mem (fst p.left) scope) then
          err "unbound variable $%s" (fst p.left);
        match p.right with
        | O_path (v, _) ->
            if not (List.mem v scope) then err "unbound variable $%s" v
        | O_const _ | O_param _ -> ())
      flwr.where;
    let rec ret = function
      | R_path (v, _) | R_var v ->
          if not (List.mem v scope) then err "unbound variable $%s" v
      | R_nested f -> go scope f
      | R_elem (_, rs) -> List.iter ret rs
    in
    List.iter ret flwr.return
  in
  let has_doc_root =
    let rec doc_rooted f =
      List.exists (fun (_, s) -> match s with Doc _ -> true | _ -> false) f.bindings
      || List.exists
           (function
             | R_nested f -> doc_rooted f
             | R_elem (_, _) | R_path _ | R_var _ -> false)
           f.return
    in
    doc_rooted q.body
  in
  if not has_doc_root then err "no binding is rooted in the document";
  go [] q.body;
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let pp_path fmt p = Format.pp_print_string fmt (String.concat "/" p)

let pp_const fmt = function
  | C_int n -> Format.pp_print_int fmt n
  | C_string s -> Format.pp_print_string fmt s

let pp_source fmt = function
  | Doc p -> Format.fprintf fmt "document(\"imdbdata\")/%a" pp_path p
  | Var_path (v, p) -> Format.fprintf fmt "$%s/%a" v pp_path p

let rec pp_flwr fmt f =
  List.iteri
    (fun i (v, src) ->
      Format.fprintf fmt "%s $%s IN %a@,"
        (if i = 0 then "FOR" else "   ")
        v pp_source src)
    f.bindings;
  if f.where <> [] then begin
    Format.pp_print_string fmt "WHERE ";
    List.iteri
      (fun i p ->
        if i > 0 then Format.fprintf fmt " AND@,      ";
        Format.fprintf fmt "$%s/%a = " (fst p.left) pp_path (snd p.left);
        match p.right with
        | O_path (v, path) -> Format.fprintf fmt "$%s/%a" v pp_path path
        | O_const c -> pp_const fmt c
        | O_param k -> Format.fprintf fmt "?%d" k)
      f.where;
    Format.pp_print_cut fmt ()
  end;
  Format.pp_print_string fmt "RETURN ";
  List.iteri
    (fun i r ->
      if i > 0 then Format.fprintf fmt ",@,       ";
      pp_ret fmt r)
    f.return

and pp_ret fmt = function
  | R_path (v, p) -> Format.fprintf fmt "$%s/%a" v pp_path p
  | R_var v -> Format.fprintf fmt "$%s" v
  | R_nested f -> Format.fprintf fmt "@[<v 2>(%a)@]" pp_flwr f
  | R_elem (tag, rs) ->
      Format.fprintf fmt "@[<v 2><%s>@," tag;
      List.iteri
        (fun i r ->
          if i > 0 then Format.pp_print_cut fmt ();
          pp_ret fmt r)
        rs;
      Format.fprintf fmt "@]@,</%s>" tag

let pp fmt q = Format.fprintf fmt "@[<v>(: %s :)@,%a@]" q.name pp_flwr q.body

(* Slot order: the outer WHERE clause left to right, then each nested
   FLWR of the return clause in return order, recursively.  [List.map]
   applies its function front to back, and [where] is mapped before
   [return], so the counter below numbers the constants in exactly that
   order. *)
let lift flwr =
  let consts = ref [] and n = ref 0 in
  let slot c =
    consts := c :: !consts;
    incr n;
    O_param (!n - 1)
  in
  let rec go f =
    let where =
      List.map
        (fun p ->
          match p.right with
          | O_const c -> { p with right = slot c }
          | O_path _ | O_param _ -> p)
        f.where
    in
    { f with where; return = List.map ret f.return }
  and ret = function
    | R_nested f -> R_nested (go f)
    | R_elem (tag, rs) -> R_elem (tag, List.map ret rs)
    | (R_path _ | R_var _) as r -> r
  in
  let body = go flwr in
  (body, Array.of_list (List.rev !consts))

(* ------------------------------------------------------------------ *)
(* update statements (the paper's future-work extension)               *)
(* ------------------------------------------------------------------ *)

type update =
  | U_insert of { name : string; target : path }
  | U_delete of { name : string; body : flwr; target : string }
  | U_set of {
      name : string;
      body : flwr;
      target : string * path;
      value : const;
    }

let check_update u =
  match u with
  | U_insert { target = []; _ } -> Error [ "INSERT with an empty path" ]
  | U_insert _ -> Ok ()
  | U_delete { body; target; name } ->
      check
        {
          name;
          body = { body with return = [ R_var target ] };
        }
  | U_set { body; target = v, path; name; _ } ->
      check { name; body = { body with return = [ R_path (v, path) ] } }
