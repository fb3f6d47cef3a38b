exception Parse_error of { position : int; message : string }

(* The scanner compares literals in place and scans runs of bytes.  A
   text run is kept as a slice of the input ([t0], [t1]) and copied
   once, when it is flushed; [buf] is used only when the text spans a
   reference, a CDATA section, a comment or a processing instruction,
   and for attribute values.  Text never spans a child element, and an
   element's attribute values are read before its content, so one
   buffer serves the whole parse.  Tag and
   attribute names are interned in [names] (open addressing over a
   power-of-two table, [""] marks a free slot): each distinct name is
   one string per parse. *)
type state = {
  input : string;
  len : int;
  mutable pos : int;
  buf : Buffer.t;
  mutable buffered : bool;  (* the pending text is in [buf] *)
  mutable t0 : int;  (* the pending slice, when [t0 >= 0] *)
  mutable t1 : int;
  mutable names : string array;
  mutable n_names : int;
}

let fail st message = raise (Parse_error { position = st.pos; message })

let eof st = st.pos >= st.len
let peek st = st.input.[st.pos]
let advance st = st.pos <- st.pos + 1

let rec same input i s k n =
  k = n || (input.[i + k] = s.[k] && same input i s (k + 1) n)

(* [s] occurs in the input at [i] *)
let occurs_at st i s =
  let n = String.length s in
  i + n <= st.len && same st.input i s 0 n

let looking_at st s = occurs_at st st.pos s

let expect st s =
  if looking_at st s then st.pos <- st.pos + String.length s
  else fail st (Printf.sprintf "expected %S" s)

(* the first occurrence of [s] at or after [i], or -1 *)
let rec find st s i =
  if i + String.length s > st.len then -1
  else if occurs_at st i s then i
  else find st s (i + 1)

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let skip_space st =
  while (not (eof st)) && is_space (peek st) do
    advance st
  done

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let hash s a b =
  let h = ref 0 in
  for i = a to b - 1 do
    h := (!h * 31) + Char.code s.[i]
  done;
  !h land max_int

(* the slot holding the name input[a, a + n), or the free slot it goes in *)
let rec slot st a n i =
  let s = st.names.(i) in
  if String.length s = 0 || (String.length s = n && occurs_at st a s) then i
  else slot st a n ((i + 1) land (Array.length st.names - 1))

let grow st =
  let old = st.names in
  let names = Array.make (2 * Array.length old) "" in
  let mask = Array.length names - 1 in
  Array.iter
    (fun s ->
      if String.length s > 0 then begin
        let i = ref (hash s 0 (String.length s) land mask) in
        while String.length names.(!i) > 0 do
          i := (!i + 1) land mask
        done;
        names.(!i) <- s
      end)
    old;
  st.names <- names

let rec intern st a b =
  let i =
    slot st a (b - a) (hash st.input a b land (Array.length st.names - 1))
  in
  let s = st.names.(i) in
  if String.length s > 0 then s
  else if 2 * (st.n_names + 1) > Array.length st.names then begin
    grow st;
    intern st a b
  end
  else begin
    let s = String.sub st.input a (b - a) in
    st.names.(i) <- s;
    st.n_names <- st.n_names + 1;
    s
  end

(* move past the name at [st.pos] *)
let scan_name st =
  if eof st || not (is_name_start (peek st)) then fail st "expected a name";
  while (not (eof st)) && is_name_char (peek st) do
    advance st
  done

let parse_name st =
  let start = st.pos in
  scan_name st;
  intern st start st.pos

(* ---------- pending text ---------- *)

(* move the pending slice into the buffer *)
let spill st =
  if not st.buffered then begin
    st.buffered <- true;
    if st.t0 >= 0 then begin
      Buffer.add_substring st.buf st.input st.t0 (st.t1 - st.t0);
      st.t0 <- -1
    end
  end

(* the input bytes [a, b) continue the pending text *)
let add_slice st a b =
  if (not st.buffered) && st.t0 < 0 then begin
    st.t0 <- a;
    st.t1 <- b
  end
  else begin
    spill st;
    Buffer.add_substring st.buf st.input a (b - a)
  end

(* s[a, b) is all [String.trim] whitespace *)
let rec blank s a b =
  a >= b
  ||
  match s.[a] with
  | ' ' | '\012' | '\n' | '\r' | '\t' -> blank s (a + 1) b
  | _ -> false

(* End the pending text: a text node unless it is whitespace only. *)
let flush_text st acc =
  if st.buffered then begin
    let s = Buffer.contents st.buf in
    Buffer.clear st.buf;
    st.buffered <- false;
    if blank s 0 (String.length s) then acc else Xml.Text s :: acc
  end
  else if st.t0 >= 0 then begin
    let a = st.t0 and b = st.t1 in
    st.t0 <- -1;
    if blank st.input a b then acc
    else Xml.Text (String.sub st.input a (b - a)) :: acc
  end
  else acc

(* ---------- markup ---------- *)

(* Decode an entity/character reference into the buffer; [st.pos] is
   just past '&'.  Character references are XML 1.0's: [&#] decimal
   digits [;] or [&#x] hex digits [;], naming a Unicode scalar value. *)
let parse_reference st =
  let start = st.pos in
  let upto =
    match String.index_from st.input start ';' with
    | i -> i
    | exception Not_found -> fail st "unterminated entity reference"
  in
  st.pos <- upto + 1;
  let n = upto - start in
  let is lit = n = String.length lit && occurs_at st start lit in
  let unknown () =
    fail st
      (Printf.sprintf "unknown entity &%s;" (String.sub st.input start n))
  in
  if is "amp" then Buffer.add_char st.buf '&'
  else if is "lt" then Buffer.add_char st.buf '<'
  else if is "gt" then Buffer.add_char st.buf '>'
  else if is "quot" then Buffer.add_char st.buf '"'
  else if is "apos" then Buffer.add_char st.buf '\''
  else if n < 2 || st.input.[start] <> '#' then unknown ()
  else begin
    let hex = st.input.[start + 1] = 'x' in
    let first = if hex then start + 2 else start + 1 in
    if first >= upto then unknown ();
    (* saturates just past the last code point, so it cannot overflow *)
    let code = ref 0 in
    for i = first to upto - 1 do
      let d =
        match st.input.[i] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | ('a' .. 'f' as c) when hex -> Char.code c - Char.code 'a' + 10
        | ('A' .. 'F' as c) when hex -> Char.code c - Char.code 'A' + 10
        | _ -> unknown ()
      in
      code := min 0x110000 ((!code * if hex then 16 else 10) + d)
    done;
    if not (Uchar.is_valid !code) then
      fail st
        (Printf.sprintf "character reference &%s; is not a Unicode scalar value"
           (String.sub st.input start n));
    Buffer.add_utf_8_uchar st.buf (Uchar.of_int !code)
  end

let skip_comment st =
  expect st "<!--";
  match find st "-->" st.pos with
  | -1 -> fail st "unterminated comment"
  | i -> st.pos <- i + 3

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
  match find st "?>" st.pos with
  | -1 -> fail st "unterminated processing instruction"
  | i -> st.pos <- i + 2

let parse_attr_value st =
  if eof st then fail st "expected quoted value";
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then fail st "expected quoted value";
  advance st;
  let rec go () =
    let start = st.pos in
    while (not (eof st)) && peek st <> quote && peek st <> '&' do
      advance st
    done;
    Buffer.add_substring st.buf st.input start (st.pos - start);
    if eof st then fail st "unterminated attribute value"
    else if peek st = quote then advance st
    else begin
      advance st;
      parse_reference st;
      go ()
    end
  in
  go ();
  let s = Buffer.contents st.buf in
  Buffer.clear st.buf;
  s

let rec parse_attributes st acc =
  skip_space st;
  if eof st then fail st "unterminated start tag"
  else if peek st = '>' || peek st = '/' then List.rev acc
  else begin
    let name = parse_name st in
    skip_space st;
    expect st "=";
    skip_space st;
    let value = parse_attr_value st in
    parse_attributes st ((name, value) :: acc)
  end

(* the CDATA section's bytes continue the pending text *)
let parse_cdata st =
  expect st "<![CDATA[";
  match find st "]]>" st.pos with
  | -1 -> fail st "unterminated CDATA section"
  | i ->
      add_slice st st.pos i;
      st.pos <- i + 3

(* The close tag's name, [st.pos] just past "</": compared with the
   open tag's in place, extracted only for the mismatch error. *)
let close_tag st name =
  let n = String.length name in
  if
    occurs_at st st.pos name
    && not (st.pos + n < st.len && is_name_char st.input.[st.pos + n])
  then st.pos <- st.pos + n
  else begin
    let start = st.pos in
    scan_name st;
    fail st
      (Printf.sprintf "mismatched close tag </%s> for <%s>"
         (String.sub st.input start (st.pos - start))
         name)
  end

let rec parse_element st =
  expect st "<";
  let name = parse_name st in
  let attrs = parse_attributes st [] in
  skip_space st;
  if looking_at st "/>" then begin
    expect st "/>";
    Xml.Element (name, attrs, [])
  end
  else begin
    expect st ">";
    let children = parse_content st in
    expect st "</";
    close_tag st name;
    skip_space st;
    expect st ">";
    Xml.Element (name, attrs, children)
  end

and parse_content st =
  let acc = ref [] and closed = ref false in
  while not !closed do
    if eof st then fail st "unexpected end of input inside element";
    match peek st with
    | '<' ->
        if looking_at st "</" then closed := true
        else if looking_at st "<!--" then skip_comment st
        else if looking_at st "<![CDATA[" then parse_cdata st
        else if looking_at st "<?" then skip_pi st
        else begin
          acc := flush_text st !acc;
          acc := parse_element st :: !acc
        end
    | '&' ->
        advance st;
        spill st;
        parse_reference st
    | _ ->
        let start = st.pos in
        while (not (eof st)) && peek st <> '<' && peek st <> '&' do
          advance st
        done;
        add_slice st start st.pos
  done;
  List.rev (flush_text st !acc)

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
  let st =
    {
      input;
      len = String.length input;
      pos = 0;
      buf = Buffer.create 256;
      buffered = false;
      t0 = -1;
      t1 = -1;
      names = Array.make 64 "";
      n_names = 0;
    }
  in
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
