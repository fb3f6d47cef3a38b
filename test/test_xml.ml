open Legodb
open Test_util

let parse = Xml_parse.parse_string

let roundtrip name input =
  case name (fun () ->
      let doc = parse input in
      let doc' = parse (Xml.to_string doc) in
      check_bool "round trip" true (Xml.equal doc doc'))

(* the reading of integer text before [Xml.int_of_text] owned it *)
let old_int_of_text s =
  String.to_seq (String.trim s)
  |> Seq.filter (fun c -> c <> ',')
  |> String.of_seq |> int_of_string_opt

let parse_error name input =
  case name (fun () ->
      match parse input with
      | _ -> Alcotest.failf "expected a parse error for %S" input
      | exception Xml_parse.Parse_error _ -> ())

let suite =
  [
    case "element with text" (fun () ->
        let doc = parse "<a>hello</a>" in
        check_string "tag" "a" (Option.get (Xml.tag doc));
        check_string "text" "hello" (Xml.text_content doc));
    case "attributes" (fun () ->
        let doc = parse {|<a x="1" y='two'/>|} in
        check_string "x" "1" (Option.get (Xml.attribute "x" doc));
        check_string "y" "two" (Option.get (Xml.attribute "y" doc));
        check_bool "missing" true (Xml.attribute "z" doc = None));
    case "nesting and children" (fun () ->
        let doc = parse "<a><b>1</b><c/><b>2</b></a>" in
        check_int "element children" 3 (List.length (Xml.element_children doc));
        check_int "b children" 2 (List.length (Xml.child_elements "b" doc));
        check_string "first b" "1"
          (Xml.text_content (Option.get (Xml.first_child "b" doc))));
    case "entities decode" (fun () ->
        let doc = parse "<a>&lt;x&gt; &amp; &quot;y&quot; &#65;&#x42;</a>" in
        check_string "decoded" {|<x> & "y" AB|} (Xml.text_content doc));
    case "escaping on output" (fun () ->
        let doc = Xml.leaf "a" "<&>\"'" in
        let s = Xml.to_string doc in
        check_bool "no raw angle" true (not (String.contains (String.sub s 3 (String.length s - 7)) '<'));
        check_bool "round trip" true (Xml.equal doc (parse s)));
    case "comments skipped" (fun () ->
        let doc = parse "<a><!-- hi --><b/><!-- bye --></a>" in
        check_int "children" 1 (List.length (Xml.element_children doc)));
    case "prolog and doctype skipped" (fun () ->
        let doc =
          parse "<?xml version=\"1.0\"?><!DOCTYPE a [ <!ELEMENT a (b)> ]><a><b/></a>"
        in
        check_string "root" "a" (Option.get (Xml.tag doc)));
    case "cdata" (fun () ->
        let doc = parse "<a><![CDATA[<raw> & stuff]]></a>" in
        check_string "cdata" "<raw> & stuff" (Xml.text_content doc));
    case "whitespace-only text dropped" (fun () ->
        let doc = parse "<a>\n  <b/>\n  <c/>\n</a>" in
        check_int "children" 2 (List.length (Xml.children doc)));
    case "select paths" (fun () ->
        let doc = parse "<a><b><c>1</c></b><b><c>2</c><c>3</c></b></a>" in
        check_int "a/b/c" 3 (List.length (Xml.select [ "a"; "b"; "c" ] doc));
        check_int "wrong root" 0 (List.length (Xml.select [ "x"; "b" ] doc)));
    case "count and fold" (fun () ->
        let doc = parse "<a><b><c/></b><d/></a>" in
        check_int "count" 4 (Xml.count_elements doc);
        let paths = Xml.fold (fun acc p _ -> String.concat "/" p :: acc) [] doc in
        check_bool "deep path seen" true (List.mem "a/b/c" paths));
    case "normalize merges text" (fun () ->
        let doc = Xml.elem "a" [ Xml.text "x"; Xml.text ""; Xml.text "y" ] in
        match Xml.normalize doc with
        | Xml.Element (_, _, [ Xml.Text "xy" ]) -> ()
        | _ -> Alcotest.fail "expected merged text");
    case "equal ignores text fragmentation" (fun () ->
        let a = Xml.elem "a" [ Xml.text "xy" ] in
        let b = Xml.elem "a" [ Xml.text "x"; Xml.text "y" ] in
        check_bool "equal" true (Xml.equal a b));
    roundtrip "round trip simple" "<a x=\"1\"><b>t</b><c/></a>";
    roundtrip "round trip escapes" "<a>&lt;&amp;&gt;</a>";
    roundtrip "round trip imdb sample"
      {|<imdb><show type="Movie"><title>Fugitive, The</title><year>1993</year></show></imdb>|};
    case "round trip generated imdb" (fun () ->
        let doc = Lazy.force small_imdb_doc in
        let doc' = parse (Xml.to_string doc) in
        check_bool "equal" true (Xml.equal doc doc'));
    parse_error "unclosed tag" "<a><b></a>";
    parse_error "bad entity" "<a>&unknown;</a>";
    parse_error "trailing garbage" "<a/><b/>";
    parse_error "unterminated string" "<a x=\"1/>";
    parse_error "empty input" "   ";
    case "error message has line info" (fun () ->
        (try ignore (parse "<a>\n<b>\n</a>") with
        | Xml_parse.Parse_error { position; message } ->
            let s = Xml_parse.error_message position message "<a>\n<b>\n</a>" in
            check_bool "mentions line 3" true
              (String.length s > 0
              && Option.is_some
                   (String.index_opt s '3'))));
    (* character references are XML 1.0's and name Unicode scalar
       values; anything else is a Parse_error, never an exception of
       another kind *)
    parse_error "surrogate character reference" "<a>&#xD800;</a>";
    parse_error "negative character reference" "<a>&#-5;</a>";
    parse_error "character reference past U+10FFFF" "<a>&#x110000;</a>";
    parse_error "base-prefixed character reference" "<a>&#0x41;</a>";
    parse_error "underscored character reference" "<a>&#1_0;</a>";
    parse_error "signed character reference" "<a>&#+5;</a>";
    parse_error "surrogate reference in an attribute" {|<a x="&#xDFFF;"/>|};
    case "largest code point decodes" (fun () ->
        check_string "U+10FFFF" "\xf4\x8f\xbf\xbf"
          (Xml.text_content (parse "<a>&#x10FFFF;</a>")));
    parse_error "start tag cut off after =" "<a x=";
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500
         ~name:"int_of_text is trim, drop commas, int_of_string_opt"
         ~print:(Printf.sprintf "%S")
         QCheck2.Gen.(
           string_size (int_range 0 12)
             ~gen:
               (oneofl
                  [ '0'; '1'; '7'; '9'; ','; '_'; '+'; '-'; 'x'; 'o'; 'b';
                    'a'; 'F'; ' '; '\t'; '\n'; '\r'; '\012' ]))
         (fun s -> Xml.int_of_text s = old_int_of_text s));
    case "int_of_text fixed cases" (fun () ->
        let max_int_plus_1 =
          Printf.sprintf "%d%d" (max_int / 10) ((max_int mod 10) + 1)
        in
        List.iter
          (fun s ->
            check_bool s true (Xml.int_of_text s = old_int_of_text s))
          [ ""; "-0"; string_of_int max_int; string_of_int min_int;
            max_int_plus_1; "1,024"; " 7 "; "0x1F"; "-"; "12a" ];
        check_bool "max_int" true
          (Xml.int_of_text (string_of_int max_int) = Some max_int);
        check_bool "min_int" true
          (Xml.int_of_text (string_of_int min_int) = Some min_int);
        check_bool "max_int + 1" true (Xml.int_of_text max_int_plus_1 = None);
        check_bool "-0" true (Xml.int_of_text "-0" = Some 0));
  ]
