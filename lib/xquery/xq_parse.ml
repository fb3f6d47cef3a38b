exception Parse_error of { position : int; message : string }

(* ---------------- lexer ---------------- *)

(* One lexer, scanning in place: a token is its kind plus a span of the
   input, and a payload is copied only where the parser builds an AST
   node from it.  [parse], [parse_update] and [shape] all pull their
   tokens from [scan]. *)

type kind =
  | For
  | In
  | Where
  | Return
  | And
  | Var  (* [$name]: the span is the name *)
  | Ident
  | Int  (* the value is [num] *)
  | Quoted  (* a string literal: the span is its contents, quotes excluded *)
  | Slash
  | Eq
  | Comma
  | Lparen
  | Rparen
  | Open  (* [<tag>]: the span is the tag *)
  | Close  (* [</tag>] *)
  | Eof

type token = {
  mutable kind : kind;
  mutable pos : int;  (* where the token starts: its errors' position *)
  mutable first : int;  (* the payload span [first, last) *)
  mutable last : int;
  mutable num : int;
}

(* [i] is the next byte to scan *)
type lexer = { input : string; mutable i : int }

let fresh_token () = { kind = Eof; pos = 0; first = 0; last = 0; num = 0 }

let fail_at position message = raise (Parse_error { position; message })

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

(* byte [c] of this table is non-NUL when [c] may continue an identifier *)
let ident_chars =
  String.init 256 (fun code ->
      let c = Char.chr code in
      if is_ident_start c || (c >= '0' && c <= '9') then '\001' else '\000')

let rec ident_end input n i =
  if
    i < n
    && String.unsafe_get ident_chars (Char.code (String.unsafe_get input i))
       <> '\000'
  then ident_end input n (i + 1)
  else i

let rec same_from ~fold input first word k =
  k = String.length word
  || (let c = input.[first + k] in
      (if fold then Char.lowercase_ascii c else c) = word.[k])
     && same_from ~fold input first word (k + 1)

(* [input.[first..last)] spells [word], folding the input's case first
   when [fold] ([word] is then lower case) *)
let spells ~fold input first last word =
  last - first = String.length word && same_from ~fold input first word 0

let keyword input first last =
  match last - first with
  | 2 when spells ~fold:true input first last "in" -> In
  | 3 when spells ~fold:true input first last "for" -> For
  | 3 when spells ~fold:true input first last "and" -> And
  | 5 when spells ~fold:true input first last "where" -> Where
  | 6 when spells ~fold:true input first last "return" -> Return
  | _ -> Ident

let set tok kind ~pos ~first ~last =
  tok.kind <- kind;
  tok.pos <- pos;
  tok.first <- first;
  tok.last <- last

let rec comment_end input n at j =
  if j + 1 >= n then fail_at at "unterminated comment"
  else if input.[j] = ':' && input.[j + 1] = ')' then j + 2
  else comment_end input n at (j + 1)

(* the first byte at or after [i] that is neither whitespace nor in a
   comment *)
let rec skip_blank input n i =
  if i >= n then i
  else
    match String.unsafe_get input i with
    | ' ' | '\t' | '\n' | '\r' -> skip_blank input n (i + 1)
    | '(' when i + 1 < n && input.[i + 1] = ':' ->
        skip_blank input n (comment_end input n i (i + 2))
    | _ -> i

let rec quote_end input n j =
  if j < n && String.unsafe_get input j <> '"' then quote_end input n (j + 1)
  else j

(* the value of the number at [at], whose digits continue from [j],
   into [tok.num], grouping commas skipped; past [max_int] the literal
   is malformed, as [int_of_string] has it.  Returns where it ends. *)
let rec digits tok input n at j v =
  match if j < n then input.[j] else ' ' with
  | '0' .. '9' as c ->
      let d = Char.code c - Char.code '0' in
      if v > (max_int - d) / 10 then fail_at at "malformed number"
      else digits tok input n at (j + 1) ((v * 10) + d)
  | ',' -> digits tok input n at (j + 1) v
  | _ ->
      tok.num <- v;
      j

(* Fill [tok] with the token at [lx.i] (skipping whitespace and
   [(: comments :)]) and move [lx.i] past it; at the end of the input
   the token is [Eof] at the input's length. *)
let scan lx tok =
  let input = lx.input in
  let n = String.length input in
  let i = skip_blank input n lx.i in
  if i >= n then begin
    set tok Eof ~pos:n ~first:n ~last:n;
    lx.i <- n
  end
  else
    match String.unsafe_get input i with
    | '$' ->
        if i + 1 < n && is_ident_start input.[i + 1] then begin
          let last = ident_end input n (i + 1) in
          set tok Var ~pos:i ~first:(i + 1) ~last;
          lx.i <- last
        end
        else fail_at i "expected a variable name after $"
    | '<' ->
        let closing = i + 1 < n && input.[i + 1] = '/' in
        let first = if closing then i + 2 else i + 1 in
        if first < n && is_ident_start input.[first] then begin
          let last = ident_end input n first in
          if last < n && input.[last] = '>' then begin
            set tok (if closing then Close else Open) ~pos:i ~first ~last;
            lx.i <- last + 1
          end
          else fail_at i "expected > to end a tag"
        end
        else fail_at i "expected a tag name after <"
    | '"' ->
        let last = quote_end input n (i + 1) in
        if last >= n then fail_at i "unterminated string literal";
        set tok Quoted ~pos:i ~first:(i + 1) ~last;
        lx.i <- last + 1
    | '0' .. '9' ->
        let last = digits tok input n i i 0 in
        set tok Int ~pos:i ~first:i ~last;
        lx.i <- last
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
        let last = ident_end input n i in
        set tok (keyword input i last) ~pos:i ~first:i ~last;
        lx.i <- last
    | ('/' | '=' | ',' | '(' | ')') as c ->
        let kind =
          match c with
          | '/' -> Slash
          | '=' -> Eq
          | ',' -> Comma
          | '(' -> Lparen
          | _ -> Rparen
        in
        set tok kind ~pos:i ~first:i ~last:(i + 1);
        lx.i <- i + 1
    | c -> fail_at i (Printf.sprintf "unexpected character %C" c)

(* ---------------- parser ---------------- *)

(* The parser pulls tokens: [tok] is the current one and, when [ahead],
   [next] is the one after it (the lookahead past a [$var] that
   [parse_bindings] needs). *)
type state = {
  lx : lexer;
  mutable tok : token;
  mutable next : token;
  mutable ahead : bool;
}

let start input =
  let st =
    { lx = { input; i = 0 }; tok = fresh_token (); next = fresh_token ();
      ahead = false }
  in
  scan st.lx st.tok;
  st

let peek st = st.tok.kind

let peek2 st =
  if not st.ahead then begin
    scan st.lx st.next;
    st.ahead <- true
  end;
  st.next.kind

let advance st =
  if st.ahead then begin
    let t = st.tok in
    st.tok <- st.next;
    st.next <- t;
    st.ahead <- false
  end
  else scan st.lx st.tok

(* the current token's payload, copied *)
let text st =
  let t = st.tok in
  String.sub st.lx.input t.first (t.last - t.first)

let spells_tok ~fold st word =
  spells ~fold st.lx.input st.tok.first st.tok.last word

(* A grammar error at the current token.  Errors are reported as if the
   whole input were lexed before parsing: a lexer error later in the
   input wins, so the rest is lexed first and its first lexer error, if
   any, is raised instead. *)
let fail st message =
  let position = st.tok.pos in
  let scratch = fresh_token () in
  let rec drain () =
    scan st.lx scratch;
    if scratch.kind <> Eof then drain ()
  in
  drain ();
  raise (Parse_error { position; message })

let expect st kind msg =
  if peek st = kind then advance st else fail st ("expected " ^ msg)

let parse_path st =
  (* ident ('/' ident)* *)
  let step () =
    match peek st with
    | Ident ->
        let id = text st in
        advance st;
        id
    | _ -> fail st "expected a path step"
  in
  let first = step () in
  let rec more acc =
    if peek st = Slash then begin
      advance st;
      more (step () :: acc)
    end
    else List.rev acc
  in
  more [ first ]

let parse_var_path st v =
  (* after $v, an optional /path *)
  if peek st = Slash then begin
    advance st;
    (v, parse_path st)
  end
  else (v, [])

(* the current [$var]'s name, consumed *)
let var st =
  let v = text st in
  advance st;
  v

let parse_source st =
  match peek st with
  | Var ->
      let v, path = parse_var_path st (var st) in
      Xq_ast.Var_path (v, path)
  | Ident when spells_tok ~fold:false st "document" ->
      advance st;
      expect st Lparen "( after document";
      (match peek st with
      | Quoted -> advance st
      | _ -> fail st "expected a document name string");
      expect st Rparen ") after document name";
      expect st Slash "/ after document(...)";
      Xq_ast.Doc (parse_path st)
  | Ident -> Xq_ast.Doc (parse_path st)
  | _ -> fail st "expected a binding source"

(* the constant operand at the current token, consumed *)
let const st =
  match peek st with
  | Int ->
      let n = st.tok.num in
      advance st;
      Some (Xq_ast.C_int n)
  | Quoted | Ident ->
      let s = text st in
      advance st;
      Some (Xq_ast.C_string s)
  | _ -> None

let parse_pred st =
  match peek st with
  | Var ->
      let left = parse_var_path st (var st) in
      expect st Eq "=";
      let right =
        match peek st with
        | Var ->
            let w, path = parse_var_path st (var st) in
            Xq_ast.O_path (w, path)
        | _ -> (
            match const st with
            | Some c -> Xq_ast.O_const c
            | None -> fail st "expected a comparison operand")
      in
      { Xq_ast.left; right }
  | _ -> fail st "expected a $variable path in WHERE"

let parse_where st =
  if peek st = Where then begin
    advance st;
    let rec preds acc =
      let p = parse_pred st in
      if peek st = And then begin
        advance st;
        preds (p :: acc)
      end
      else List.rev (p :: acc)
    in
    preds []
  end
  else []


let rec parse_flwr st =
  expect st For "FOR";
  let bindings = parse_bindings st [] in
  let where = parse_where st in
  expect st Return "RETURN";
  let return = parse_rets st [] in
  { Xq_ast.bindings; where; return }

and parse_bindings st acc =
  (* one binding, then continue while a comma or another $var follows *)
  let b = parse_binding st in
  let acc = b :: acc in
  match peek st with
  | Comma ->
      advance st;
      parse_bindings st acc
  | Var when peek2 st <> Eq -> parse_bindings st acc
  | _ -> List.rev acc

and parse_binding st =
  match peek st with
  | Var -> (
      let v = var st in
      match peek st with
      | In ->
          advance st;
          (v, parse_source st)
      | Slash ->
          (* reversed form: FOR $v/episode $e *)
          advance st;
          let path = parse_path st in
          (match peek st with
          | Var -> (var st, Xq_ast.Var_path (v, path))
          | _ -> fail st "expected a variable after the binding path")
      | _ -> fail st "expected IN or / in a FOR binding")
  | _ -> fail st "expected a $variable in a FOR binding"

and parse_rets st acc =
  match peek st with
  | Comma ->
      advance st;
      parse_rets st acc
  | Var ->
      let v, path = parse_var_path st (var st) in
      let item =
        if path = [] then Xq_ast.R_var v else Xq_ast.R_path (v, path)
      in
      parse_rets st (item :: acc)
  | Open ->
      let tag = text st in
      advance st;
      let inner = parse_rets st [] in
      (match peek st with
      | Close when spells_tok ~fold:false st tag ->
          advance st;
          parse_rets st (Xq_ast.R_elem (tag, inner) :: acc)
      | Close -> fail st ("mismatched closing tag for <" ^ tag ^ ">")
      | _ -> fail st ("missing </" ^ tag ^ ">"))
  | For -> parse_rets st (Xq_ast.R_nested (parse_flwr st) :: acc)
  | Lparen ->
      (* parenthesized nested FLWR — the form {!Xq_ast.pp} prints, since
         the parens mark where the inner RETURN list ends and the outer
         one resumes *)
      advance st;
      let f = parse_flwr st in
      expect st Rparen ") after a nested FOR";
      parse_rets st (Xq_ast.R_nested f :: acc)
  | _ -> List.rev acc

let parse ?(name = "query") input =
  let st = start input in
  let body = parse_flwr st in
  (match peek st with
  | Eof -> ()
  | _ -> fail st "trailing tokens after the query");
  { Xq_ast.name; body }

(* ---------------- update statements ---------------- *)

let ident_is st kw = peek st = Ident && spells_tok ~fold:true st kw

let parse_update ?(name = "update") input =
  let st = start input in
  let finish u =
    match peek st with
    | Eof -> u
    | _ -> fail st "trailing tokens after the update"
  in
  if ident_is st "insert" then begin
    advance st;
    let target =
      match peek st with
      | Ident -> (
          match parse_source st with
          | Xq_ast.Doc path -> path
          | Xq_ast.Var_path _ -> fail st "INSERT takes a document path")
      | _ -> fail st "expected a document path after INSERT"
    in
    finish (Xq_ast.U_insert { name; target })
  end
  else begin
    expect st For "FOR or INSERT";
    let bindings = parse_bindings st [] in
    let where = parse_where st in
    let body = { Xq_ast.bindings; where; return = [] } in
    if ident_is st "delete" then begin
      advance st;
      match peek st with
      | Var -> finish (Xq_ast.U_delete { name; body; target = var st })
      | _ -> fail st "expected a $variable after DELETE"
    end
    else if ident_is st "set" then begin
      advance st;
      match peek st with
      | Var -> (
          let v, path = parse_var_path st (var st) in
          expect st Eq "=";
          match const st with
          | Some value ->
              finish (Xq_ast.U_set { name; body; target = (v, path); value })
          | None -> fail st "expected a constant after =")
      | _ -> fail st "expected a $variable path after SET"
    end
    else fail st "expected DELETE or SET after the bindings"
  end

(* ---------------- statement shapes ---------------- *)

let marker = '\000'

let rec clean input i stop =
  i >= stop || (String.unsafe_get input i <> marker && clean input (i + 1) stop)

let shape input =
  let lx = { input; i = 0 } and tok = fresh_token () in
  (* [clean]: no marker byte outside the constants so far, checked where
     the lexer skips bytes it does not judge (whitespace and comments,
     longer than one byte, and string literals that are no constant);
     the constants, newest first: span start, span end, value *)
  let rec walk after_eq clean_so_far consts count bytes =
    let from = lx.i in
    scan lx tok;
    let clean_so_far =
      clean_so_far && (tok.pos - from <= 1 || clean input from tok.pos)
    in
    match tok.kind with
    | Eof -> if clean_so_far then Some (consts, count, bytes) else None
    | (Int | Quoted | Ident) when after_eq ->
        let c =
          if tok.kind = Int then Xq_ast.C_int tok.num
          else
            Xq_ast.C_string (String.sub input tok.first (tok.last - tok.first))
        in
        walk false clean_so_far ((tok.pos, lx.i, c) :: consts) (count + 1)
          (bytes + lx.i - tok.pos)
    | kind ->
        walk (kind = Eq)
          (clean_so_far && (kind <> Quoted || clean input tok.first tok.last))
          consts count bytes
  in
  match walk false true [] 0 0 with
  | None -> None
  | Some (consts, count, bytes) ->
      let n = String.length input in
      let key =
        if count = 0 then input
        else begin
          let key = Bytes.create (n - bytes + count) in
          (* fill from the end: the constants arrive last first *)
          let rec fill upto dst = function
            | [] -> Bytes.blit_string input 0 key 0 upto
            | (first, last, _) :: rest ->
                let dst = dst - (upto - last) in
                Bytes.blit_string input last key dst (upto - last);
                Bytes.set key (dst - 1) marker;
                fill first (dst - 1) rest
          in
          fill n (Bytes.length key) consts;
          Bytes.unsafe_to_string key
        end
      in
      Some (key, Array.of_list (List.rev_map (fun (_, _, c) -> c) consts))
