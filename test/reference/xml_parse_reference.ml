(* Frozen reference: the XML parser as it was before the allocation-free
   scanner, kept verbatim apart from this comment and the [open].  The
   differential suite in test/test_load.ml holds {!Xml_parse} to it:
   the same tree, or the same [Parse_error] position and message, on
   every input, except where this parser decodes a character reference
   XML 1.0 does not allow or crashes (out-of-range code points, a
   start tag cut off after [=]).  Do not "improve" this file. *)

open Legodb_xml

exception Parse_error of { position : int; message : string }

type state = { input : string; mutable pos : int }

let fail st message = raise (Parse_error { position = st.pos; message })

let eof st = st.pos >= String.length st.input
let peek st = st.input.[st.pos]
let advance st = st.pos <- st.pos + 1

let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.input
  && String.equal (String.sub st.input st.pos n) s

let expect st s =
  if looking_at st s then st.pos <- st.pos + String.length s
  else fail st (Printf.sprintf "expected %S" s)

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let skip_space st =
  while (not (eof st)) && is_space (peek st) do
    advance st
  done

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let parse_name st =
  if eof st || not (is_name_start (peek st)) then fail st "expected a name";
  let start = st.pos in
  while (not (eof st)) && is_name_char (peek st) do
    advance st
  done;
  String.sub st.input start (st.pos - start)

(* Decode an entity/character reference; [st.pos] is just past '&'. *)
let parse_reference st =
  let start = st.pos in
  let upto =
    match String.index_from_opt st.input st.pos ';' with
    | Some i -> i
    | None -> fail st "unterminated entity reference"
  in
  let body = String.sub st.input start (upto - start) in
  st.pos <- upto + 1;
  match body with
  | "amp" -> "&"
  | "lt" -> "<"
  | "gt" -> ">"
  | "quot" -> "\""
  | "apos" -> "'"
  | _ ->
      let code =
        if String.length body > 2 && body.[0] = '#' && body.[1] = 'x' then
          int_of_string_opt ("0x" ^ String.sub body 2 (String.length body - 2))
        else if String.length body > 1 && body.[0] = '#' then
          int_of_string_opt (String.sub body 1 (String.length body - 1))
        else None
      in
      (match code with
      | Some c when c >= 0 && c < 128 -> String.make 1 (Char.chr c)
      | Some c ->
          (* encode as UTF-8 *)
          let b = Buffer.create 4 in
          Buffer.add_utf_8_uchar b (Uchar.of_int c);
          Buffer.contents b
      | None -> fail st (Printf.sprintf "unknown entity &%s;" body))

let skip_comment st =
  expect st "<!--";
  match
    let rec find i =
      if i + 3 > String.length st.input then None
      else if String.equal (String.sub st.input i 3) "-->" then Some i
      else find (i + 1)
    in
    find st.pos
  with
  | Some i -> st.pos <- i + 3
  | None -> fail st "unterminated comment"

let skip_doctype st =
  (* skip until matching '>' , allowing one level of [...] *)
  expect st "<!DOCTYPE";
  let depth = ref 1 in
  while !depth > 0 do
    if eof st then fail st "unterminated DOCTYPE";
    (match peek st with
    | '<' -> incr depth
    | '>' -> decr depth
    | _ -> ());
    advance st
  done

let skip_pi st =
  expect st "<?";
  match
    let rec find i =
      if i + 2 > String.length st.input then None
      else if String.equal (String.sub st.input i 2) "?>" then Some i
      else find (i + 1)
    in
    find st.pos
  with
  | Some i -> st.pos <- i + 2
  | None -> fail st "unterminated processing instruction"

let parse_attr_value st =
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then fail st "expected quoted value";
  advance st;
  let buf = Buffer.create 16 in
  let rec go () =
    if eof st then fail st "unterminated attribute value"
    else
      match peek st with
      | c when c = quote -> advance st
      | '&' ->
          advance st;
          Buffer.add_string buf (parse_reference st);
          go ()
      | c ->
          Buffer.add_char buf c;
          advance st;
          go ()
  in
  go ();
  Buffer.contents buf

let parse_attributes st =
  let rec go acc =
    skip_space st;
    if eof st then fail st "unterminated start tag"
    else if peek st = '>' || peek st = '/' then List.rev acc
    else begin
      let name = parse_name st in
      skip_space st;
      expect st "=";
      skip_space st;
      let value = parse_attr_value st in
      go ((name, value) :: acc)
    end
  in
  go []

let parse_cdata st =
  expect st "<![CDATA[";
  match
    let rec find i =
      if i + 3 > String.length st.input then None
      else if String.equal (String.sub st.input i 3) "]]>" then Some i
      else find (i + 1)
    in
    find st.pos
  with
  | Some i ->
      let s = String.sub st.input st.pos (i - st.pos) in
      st.pos <- i + 3;
      s
  | None -> fail st "unterminated CDATA section"

let rec parse_element st =
  expect st "<";
  let name = parse_name st in
  let attrs = parse_attributes st in
  skip_space st;
  if looking_at st "/>" then begin
    expect st "/>";
    Xml.Element (name, attrs, [])
  end
  else begin
    expect st ">";
    let children = parse_content st in
    expect st "</";
    let close = parse_name st in
    if not (String.equal close name) then
      fail st (Printf.sprintf "mismatched close tag </%s> for <%s>" close name);
    skip_space st;
    expect st ">";
    Xml.Element (name, attrs, children)
  end

and parse_content st =
  let buf = Buffer.create 64 in
  let flush_text acc =
    let s = Buffer.contents buf in
    Buffer.clear buf;
    if String.equal (String.trim s) "" then acc else Xml.Text s :: acc
  in
  let rec go acc =
    if eof st then fail st "unexpected end of input inside element"
    else if looking_at st "</" then List.rev (flush_text acc)
    else if looking_at st "<!--" then begin
      skip_comment st;
      go acc
    end
    else if looking_at st "<![CDATA[" then begin
      Buffer.add_string buf (parse_cdata st);
      go acc
    end
    else if looking_at st "<?" then begin
      skip_pi st;
      go acc
    end
    else if peek st = '<' then begin
      let acc = flush_text acc in
      let child = parse_element st in
      go (child :: acc)
    end
    else if peek st = '&' then begin
      advance st;
      Buffer.add_string buf (parse_reference st);
      go acc
    end
    else begin
      Buffer.add_char buf (peek st);
      advance st;
      go acc
    end
  in
  go []

let parse_prolog st =
  let rec go () =
    skip_space st;
    if looking_at st "<?" then begin
      skip_pi st;
      go ()
    end
    else if looking_at st "<!--" then begin
      skip_comment st;
      go ()
    end
    else if looking_at st "<!DOCTYPE" then begin
      skip_doctype st;
      go ()
    end
  in
  go ()

let parse_string input =
  let st = { input; pos = 0 } in
  parse_prolog st;
  if eof st || peek st <> '<' then fail st "expected a root element";
  let root = parse_element st in
  skip_space st;
  while (not (eof st)) && looking_at st "<!--" do
    skip_comment st;
    skip_space st
  done;
  if not (eof st) then fail st "trailing content after root element";
  root

let parse_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  parse_string s

let error_message pos msg input =
  let line = ref 1 and col = ref 1 in
  String.iteri
    (fun i c ->
      if i < pos then
        if c = '\n' then begin
          incr line;
          col := 1
        end
        else incr col)
    input;
  Printf.sprintf "XML parse error at line %d, column %d: %s" !line !col msg
