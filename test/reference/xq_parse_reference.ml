(* Frozen reference: the XQuery parser as it was before the in-place
   lexer, kept verbatim apart from this comment and the [open].  The
   differential suite in test/test_xquery.ml holds {!Xq_parse} to it:
   the same AST, or the same [Parse_error] position and message, from
   both [parse] and [parse_update], on every input.  Do not "improve"
   this file. *)

open Legodb_xquery

exception Parse_error of { position : int; message : string }

type token =
  | TFor
  | TIn
  | TWhere
  | TReturn
  | TAnd
  | TVar of string
  | TIdent of string
  | TInt of int
  | TString of string
  | TSlash
  | TEq
  | TComma
  | TLparen
  | TRparen
  | TOpen of string
  | TClose of string
  | TEof

(* ---------------- lexer ---------------- *)

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let push pos t = tokens := (pos, t) :: !tokens in
  let fail pos message = raise (Parse_error { position = pos; message }) in
  let i = ref 0 in
  let read_ident () =
    let start = !i in
    while !i < n && is_ident_char input.[!i] do
      incr i
    done;
    String.sub input start (!i - start)
  in
  while !i < n do
    let c = input.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '(' && !i + 1 < n && input.[!i + 1] = ':' then begin
      (* comment *)
      let pos = !i in
      i := !i + 2;
      let rec skip () =
        if !i + 1 >= n then fail pos "unterminated comment"
        else if input.[!i] = ':' && input.[!i + 1] = ')' then i := !i + 2
        else begin
          incr i;
          skip ()
        end
      in
      skip ()
    end
    else if c = '$' then begin
      let pos = !i in
      incr i;
      if !i < n && is_ident_start input.[!i] then push pos (TVar (read_ident ()))
      else fail pos "expected a variable name after $"
    end
    else if c = '<' then begin
      let pos = !i in
      incr i;
      let closing = !i < n && input.[!i] = '/' in
      if closing then incr i;
      if !i < n && is_ident_start input.[!i] then begin
        let tag = read_ident () in
        if !i < n && input.[!i] = '>' then begin
          incr i;
          push pos (if closing then TClose tag else TOpen tag)
        end
        else fail pos "expected > to end a tag"
      end
      else fail pos "expected a tag name after <"
    end
    else if c = '"' then begin
      let pos = !i in
      incr i;
      let start = !i in
      while !i < n && input.[!i] <> '"' do
        incr i
      done;
      if !i >= n then fail pos "unterminated string literal";
      push pos (TString (String.sub input start (!i - start)));
      incr i
    end
    else if c >= '0' && c <= '9' then begin
      let pos = !i in
      let start = !i in
      while !i < n && ((input.[!i] >= '0' && input.[!i] <= '9') || input.[!i] = ',')
      do
        incr i
      done;
      let raw =
        String.to_seq (String.sub input start (!i - start))
        |> Seq.filter (fun c -> c <> ',')
        |> String.of_seq
      in
      match int_of_string_opt raw with
      | Some v -> push pos (TInt v)
      | None -> fail pos "malformed number"
    end
    else if is_ident_start c then begin
      let pos = !i in
      let id = read_ident () in
      let t =
        match String.lowercase_ascii id with
        | "for" -> TFor
        | "in" -> TIn
        | "where" -> TWhere
        | "return" -> TReturn
        | "and" -> TAnd
        | _ -> TIdent id
      in
      push pos t
    end
    else begin
      let pos = !i in
      (match c with
      | '/' -> push pos TSlash
      | '=' -> push pos TEq
      | ',' -> push pos TComma
      | '(' -> push pos TLparen
      | ')' -> push pos TRparen
      | _ -> fail pos (Printf.sprintf "unexpected character %C" c));
      incr i
    end
  done;
  push n TEof;
  List.rev !tokens

(* ---------------- parser ---------------- *)

type state = { mutable toks : (int * token) list }

let peek st = match st.toks with (_, t) :: _ -> t | [] -> TEof
let peek2 st = match st.toks with _ :: (_, t) :: _ -> t | _ -> TEof
let pos st = match st.toks with (p, _) :: _ -> p | [] -> 0

let advance st =
  match st.toks with _ :: rest -> st.toks <- rest | [] -> ()

let fail st message = raise (Parse_error { position = pos st; message })

let expect st t msg =
  if peek st = t then advance st else fail st ("expected " ^ msg)

let parse_path st =
  (* ident ('/' ident)* *)
  let step () =
    match peek st with
    | TIdent id ->
        advance st;
        id
    | _ -> fail st "expected a path step"
  in
  let first = step () in
  let rec more acc =
    if peek st = TSlash then begin
      advance st;
      more (step () :: acc)
    end
    else List.rev acc
  in
  more [ first ]

let parse_var_path st v =
  (* after $v, an optional /path *)
  if peek st = TSlash then begin
    advance st;
    (v, parse_path st)
  end
  else (v, [])

let parse_source st =
  match peek st with
  | TVar v ->
      advance st;
      let v, path = parse_var_path st v in
      Xq_ast.Var_path (v, path)
  | TIdent "document" ->
      advance st;
      expect st TLparen "( after document";
      (match peek st with
      | TString _ -> advance st
      | _ -> fail st "expected a document name string");
      expect st TRparen ") after document name";
      expect st TSlash "/ after document(...)";
      Xq_ast.Doc (parse_path st)
  | TIdent _ -> Xq_ast.Doc (parse_path st)
  | _ -> fail st "expected a binding source"

let rec parse_flwr st =
  expect st TFor "FOR";
  let bindings = parse_bindings st [] in
  let where =
    if peek st = TWhere then begin
      advance st;
      let rec preds acc =
        let p = parse_pred st in
        if peek st = TAnd then begin
          advance st;
          preds (p :: acc)
        end
        else List.rev (p :: acc)
      in
      preds []
    end
    else []
  in
  expect st TReturn "RETURN";
  let return = parse_rets st [] in
  { Xq_ast.bindings; where; return }

and parse_bindings st acc =
  (* one binding, then continue while a comma or another $var follows *)
  let b = parse_binding st in
  let acc = b :: acc in
  match peek st with
  | TComma ->
      advance st;
      parse_bindings st acc
  | TVar _ when peek2 st <> TEq -> parse_bindings st acc
  | _ -> List.rev acc

and parse_binding st =
  match peek st with
  | TVar v -> (
      advance st;
      match peek st with
      | TIn ->
          advance st;
          (v, parse_source st)
      | TSlash ->
          (* reversed form: FOR $v/episode $e *)
          advance st;
          let path = parse_path st in
          (match peek st with
          | TVar bound ->
              advance st;
              (bound, Xq_ast.Var_path (v, path))
          | _ -> fail st "expected a variable after the binding path")
      | _ -> fail st "expected IN or / in a FOR binding")
  | _ -> fail st "expected a $variable in a FOR binding"

and parse_pred st =
  match peek st with
  | TVar v ->
      advance st;
      let left = parse_var_path st v in
      expect st TEq "=";
      let right =
        match peek st with
        | TVar w ->
            advance st;
            let w, path = parse_var_path st w in
            Xq_ast.O_path (w, path)
        | TInt n ->
            advance st;
            Xq_ast.O_const (Xq_ast.C_int n)
        | TString s ->
            advance st;
            Xq_ast.O_const (Xq_ast.C_string s)
        | TIdent id ->
            advance st;
            Xq_ast.O_const (Xq_ast.C_string id)
        | _ -> fail st "expected a comparison operand"
      in
      { Xq_ast.left; right }
  | _ -> fail st "expected a $variable path in WHERE"

and parse_rets st acc =
  match peek st with
  | TComma ->
      advance st;
      parse_rets st acc
  | TVar v ->
      advance st;
      let v, path = parse_var_path st v in
      let item =
        if path = [] then Xq_ast.R_var v else Xq_ast.R_path (v, path)
      in
      parse_rets st (item :: acc)
  | TOpen tag ->
      advance st;
      let inner = parse_rets st [] in
      (match peek st with
      | TClose tag' when String.equal tag tag' ->
          advance st;
          parse_rets st (Xq_ast.R_elem (tag, inner) :: acc)
      | TClose _ -> fail st ("mismatched closing tag for <" ^ tag ^ ">")
      | _ -> fail st ("missing </" ^ tag ^ ">"))
  | TFor -> parse_rets st (Xq_ast.R_nested (parse_flwr st) :: acc)
  | TLparen ->
      (* parenthesized nested FLWR — the form {!Xq_ast.pp} prints, since
         the parens mark where the inner RETURN list ends and the outer
         one resumes *)
      advance st;
      let f = parse_flwr st in
      expect st TRparen ") after a nested FOR";
      parse_rets st (Xq_ast.R_nested f :: acc)
  | _ -> List.rev acc

let parse ?(name = "query") input =
  let st = { toks = tokenize input } in
  let body = parse_flwr st in
  (match peek st with
  | TEof -> ()
  | _ -> fail st "trailing tokens after the query");
  { Xq_ast.name; body }

(* ---------------- update statements ---------------- *)

let ident_is st kw =
  match peek st with
  | TIdent id -> String.equal (String.lowercase_ascii id) kw
  | _ -> false

let parse_update ?(name = "update") input =
  let st = { toks = tokenize input } in
  let finish u =
    match peek st with
    | TEof -> u
    | _ -> fail st "trailing tokens after the update"
  in
  if ident_is st "insert" then begin
    advance st;
    let target =
      match peek st with
      | TIdent "document" | TIdent _ -> (
          match parse_source st with
          | Xq_ast.Doc path -> path
          | Xq_ast.Var_path _ -> fail st "INSERT takes a document path")
      | _ -> fail st "expected a document path after INSERT"
    in
    finish (Xq_ast.U_insert { name; target })
  end
  else begin
    expect st TFor "FOR or INSERT";
    let bindings = parse_bindings st [] in
    let where =
      if peek st = TWhere then begin
        advance st;
        let rec preds acc =
          let p = parse_pred st in
          if peek st = TAnd then begin
            advance st;
            preds (p :: acc)
          end
          else List.rev (p :: acc)
        in
        preds []
      end
      else []
    in
    let body = { Xq_ast.bindings; where; return = [] } in
    if ident_is st "delete" then begin
      advance st;
      match peek st with
      | TVar v ->
          advance st;
          finish (Xq_ast.U_delete { name; body; target = v })
      | _ -> fail st "expected a $variable after DELETE"
    end
    else if ident_is st "set" then begin
      advance st;
      match peek st with
      | TVar v ->
          advance st;
          let v, path = parse_var_path st v in
          expect st TEq "=";
          let value =
            match peek st with
            | TInt n ->
                advance st;
                Xq_ast.C_int n
            | TString s ->
                advance st;
                Xq_ast.C_string s
            | TIdent id ->
                advance st;
                Xq_ast.C_string id
            | _ -> fail st "expected a constant after ="
          in
          finish (Xq_ast.U_set { name; body; target = (v, path); value })
      | _ -> fail st "expected a $variable path after SET"
    end
    else fail st "expected DELETE or SET after the bindings"
  end
