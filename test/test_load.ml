(* Differential tests of the loaders against their frozen references
   (test/reference/): the scanner ({!Xml_parse}), the path-trie
   statistics collector ({!Collector}) and the shredder that resolves
   each step once ({!Shred}) must reproduce, input for input, the trees,
   parse errors, statistics, stored rows and shred errors of the
   implementations they replaced. *)

open Legodb
open Test_util

let prop name ~count ~print gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen f)

(* ------------------------------------------------------------------ *)
(* parser                                                              *)
(* ------------------------------------------------------------------ *)

type parsed = Tree of Xml.t | Error of int * string | Crash of string

let parse_new input =
  match Xml_parse.parse_string input with
  | t -> Tree t
  | exception Xml_parse.Parse_error { position; message } ->
      Error (position, message)
  | exception e -> Crash (Printexc.to_string e)

let parse_old input =
  match Xml_parse_reference.parse_string input with
  | t -> Tree t
  | exception Xml_parse_reference.Parse_error { position; message } ->
      Error (position, message)
  | exception e -> Crash (Printexc.to_string e)

let is_dec c = c >= '0' && c <= '9'
let is_hex c = is_dec c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

(* The code point an XML 1.0 character reference body names ("#65",
   "#x41"; an overflowing one names max_int), or None when the body is
   not of that form. *)
let xml_char_ref body =
  let n = String.length body in
  let code digits =
    Some (Option.value ~default:max_int (int_of_string_opt digits))
  in
  if n > 2 && body.[0] = '#' && body.[1] = 'x' then
    let digits = String.sub body 2 (n - 2) in
    if String.for_all is_hex digits then code ("0x" ^ digits) else None
  else if n > 1 && body.[0] = '#' then
    let digits = String.sub body 1 (n - 1) in
    if String.for_all is_dec digits then code digits else None
  else None

let between ~prefix ~suffix s =
  let p = String.length prefix and q = String.length suffix in
  let n = String.length s in
  if n >= p + q && String.starts_with ~prefix s && String.ends_with ~suffix s
  then Some (String.sub s p (n - p - q))
  else None

(* The scanner's one sanctioned difference: it rejects a character
   reference that is not XML 1.0's, or names no Unicode scalar value,
   where the reference parser decoded it leniently or crashed. *)
let rejected_char_ref message =
  match
    ( between ~prefix:"unknown entity &" ~suffix:";" message,
      between ~prefix:"character reference &"
        ~suffix:"; is not a Unicode scalar value" message )
  with
  | Some body, _ ->
      String.length body > 0 && body.[0] = '#' && xml_char_ref body = None
  | None, Some body -> (
      match xml_char_ref body with
      | Some c -> not (Uchar.is_valid c)
      | None -> false)
  | None, None -> false

let agree ~old ~now =
  old = now
  ||
  match (old, now) with
  | Crash _, Error _ -> true
  | _, Error (_, message) -> rejected_char_ref message
  | _ -> false

let names = [ "a"; "b"; "item"; "x:y"; "n-1"; "_z" ]

(* mostly references both parsers decode alike, sometimes ones the
   reference rejects, and sometimes ones only the scanner rejects *)
let gen_ref =
  QCheck2.Gen.frequency
    [
      ( 30,
        QCheck2.Gen.oneofl
          [ "&amp;"; "&lt;"; "&gt;"; "&quot;"; "&apos;"; "&#65;"; "&#x42;";
            "&#xe9;"; "&#x1F600;"; "&#0;"; "&#32;"; "&#xA;"; "&#12;";
            "&#00065;"; "&#x10FFFF;" ] );
      (1, QCheck2.Gen.oneofl [ "&bogus;"; "&#;"; "&#x;"; "&#X41;"; "& amp;" ]);
      ( 1,
        QCheck2.Gen.oneofl
          [ "&#0x41;"; "&#1_0;"; "&#+5;"; "&#-5;"; "&#xD800;"; "&#xDFFF;";
            "&#x110000;"; "&#99999999999999999999;" ] );
    ]

(* Documents whose text runs mix plain bytes, whitespace-only runs
   (form feed included), references, CDATA sections, comments and
   processing instructions; attributes in both quote styles. *)
let gen_doc =
  let open QCheck2.Gen in
  let chars alphabet =
    map (String.concat "") (list_size (int_range 1 5) (oneofl alphabet))
  in
  let text = chars [ "t"; "X"; "1"; ","; " "; "\012"; "]"; ">"; "'"; "\"" ] in
  let blank = oneofl [ " "; "\n"; "\t"; "\r\n"; "\012"; " \012\n" ] in
  let cdata =
    map (Printf.sprintf "<![CDATA[%s]]>") (chars [ "c"; "<"; "&"; "]"; " " ])
  in
  let comment =
    map (Printf.sprintf "<!--%s-->") (chars [ "m"; "-"; " "; "<"; "&" ])
  in
  let pi = map (Printf.sprintf "<?pi%s?>") (chars [ " "; "p"; "?"; "<" ]) in
  let attr =
    let* name = oneofl names in
    let* quote, other = oneofl [ ("\"", "'"); ("'", "\"") ] in
    let* space = oneofl [ " "; "\n"; " \t" ] in
    let+ value =
      list_size (int_range 0 3)
        (oneof [ gen_ref; chars [ "v"; " "; ">"; "\012"; other ] ])
    in
    space ^ name ^ "=" ^ quote ^ String.concat "" value ^ quote
  in
  let rec element depth =
    let* name = oneofl names in
    let* attrs = list_size (int_range 0 2) attr in
    let* pad = oneofl [ ""; " "; "\n" ] in
    let start = "<" ^ name ^ String.concat "" attrs ^ pad in
    frequency
      [
        (1, return (start ^ "/>"));
        ( 4,
          let* items = list_size (int_range 0 5) (item depth) in
          let+ close_pad = oneofl [ ""; " "; "\n" ] in
          start ^ ">" ^ String.concat "" items ^ "</" ^ name ^ close_pad ^ ">"
        );
      ]
  and item depth =
    frequency
      ([ (3, text); (2, blank); (2, gen_ref); (1, cdata); (1, comment);
         (1, pi) ]
      @ if depth > 0 then [ (3, element (depth - 1)) ] else [])
  in
  let* prolog =
    list_size (int_range 0 2)
      (oneofl
         [ "<?xml version=\"1.0\"?>"; "<!-- head -->";
           "<!DOCTYPE a [ <!ELEMENT a ANY> ]>"; "\n"; " " ])
  in
  let* root = element 3 in
  let+ tail = oneofl [ ""; "\n"; "<!-- tail -->"; " <!--x--> \n" ] in
  String.concat "" prolog ^ root ^ tail

(* a document, a truncation of it, or one byte of it replaced *)
let gen_input =
  let open QCheck2.Gen in
  let* doc = gen_doc in
  let* k = int_range 0 (String.length doc - 1) in
  let* byte =
    oneof
      [ oneofl [ '<'; '>'; '&'; ';'; '/'; '"'; '\''; '#'; 'x'; '-'; '!'; '?';
                 '\000'; ' '; 'a' ];
        char ]
  in
  oneofl
    [ doc; String.sub doc 0 k;
      String.mapi (fun i c -> if i = k then byte else c) doc ]

let parser_cases =
  [
    prop "parser agrees with the reference on generated documents"
      ~count:1500 ~print:(Printf.sprintf "%S") gen_input (fun input ->
        agree ~old:(parse_old input) ~now:(parse_new input));
    case "parser agrees with the reference on edge inputs" (fun () ->
        List.iter
          (fun input ->
            check_bool input true
              (agree ~old:(parse_old input) ~now:(parse_new input)))
          [ ""; "<"; "<a"; "<a>"; "<a></b>"; "<a></ab>"; "<ab></a>"; "<a></>";
            "<a x=\"1\" y='2'>t</a >"; "<a x=\"1\"y=\"2\"/>"; "<a x=1/>";
            "<a x=\"&amp;&lt;\"/>"; "<a x=\"&#xD800;\"/>"; "<a x="; "<a x";
            "<a>&amp</a>"; "<a>&</a>"; "<a>x&#65;y<!--c-->z<?p?>w</a>";
            "<a><![CDATA[]]></a>"; "<a><![CDATA[ ]]>&#32;</a>";
            "<a>\012</a>"; "<a> <b/> </a>"; "<a><!--</a>"; "<a><?x</a>";
            "<a><![CDATA[x</a>"; "<!DOCTYPE a [<!ELEMENT a ANY>]><a/>";
            "<!DOCTYPE a"; "<a/><!-- t --> <!-- u -->"; "<a/>x";
            "<a><!x/></a>" ];
        (* the sanctioned differences are real differences *)
        check_bool "surrogate: reference crashes" true
          (match parse_old "<a>&#xD800;</a>" with Crash _ -> true | _ -> false);
        check_bool "base prefix: reference decodes" true
          (parse_old "<a>&#0x41;</a>" = Tree (Xml.leaf "a" "A")));
  ]

(* ------------------------------------------------------------------ *)
(* collector                                                           *)
(* ------------------------------------------------------------------ *)

let entries stats =
  List.map (fun p -> (p, Pathstat.find stats p)) (Pathstat.paths stats)

(* trees where an attribute and a child element share a name, elements
   have several (or no) text children, and values mix integers in every
   spelling the reading accepts with strings *)
let gen_tree =
  let open QCheck2.Gen in
  let names = [ "a"; "b"; "c" ] in
  let value =
    oneofl
      [ "12"; "-3"; "1,024"; " 7 "; "0x1F"; "abc"; ""; "12"; "x y"; "\012 5\n";
        "-0" ]
  in
  let attr = pair (oneofl names) value in
  let rec elem depth =
    let* tag = oneofl names in
    let* attrs = list_size (int_range 0 2) attr in
    let+ kids =
      if depth = 0 then list_size (int_range 0 2) (map Xml.text value)
      else
        list_size (int_range 0 4)
          (frequency [ (1, map Xml.text value); (2, elem (depth - 1)) ])
    in
    Xml.Element (tag, attrs, kids)
  in
  pair (oneofl [ 1; 2; 3; 1_000_000 ]) (elem 3)

let collector_cases =
  [
    prop "collector agrees with the reference on generated trees" ~count:500
      ~print:(fun (cap, t) -> Printf.sprintf "cap %d: %s" cap (Xml.to_string t))
      gen_tree (fun (distinct_cap, doc) ->
        entries (Collector.collect ~distinct_cap doc)
        = entries (Collector_reference.collect ~distinct_cap doc));
    case "collector agrees with the reference on the IMDB sample" (fun () ->
        let doc = Lazy.force small_imdb_doc in
        check_bool "equal" true
          (entries (Collector.collect doc)
          = entries (Collector_reference.collect doc)));
  ]

(* ------------------------------------------------------------------ *)
(* shredder                                                            *)
(* ------------------------------------------------------------------ *)

type shredded =
  | Rows of string
  | Rejected of string list * string * string
  | Violated of string * string
      (* the store refused a row the reference shredder inserted: the
         message and what the reference had stored before it *)
  | Raised of string

let dump db =
  let b = Buffer.create 4096 in
  Storage.write_rows b db;
  Buffer.contents b

(* shred [docs] in turn into one fresh store *)
let shred_new m docs =
  let db = Storage.create m.Mapping.catalog in
  match List.iter (Shred.shred_into db m) docs with
  | () -> Rows (dump db)
  | exception Shred.Shred_error { path; message } ->
      Rejected (path, message, dump db)
  | exception e -> Raised (Printexc.to_string e)

let shred_old m docs =
  let db = Storage.create m.Mapping.catalog in
  match List.iter (Shred_reference.shred_into db m) docs with
  | () -> Rows (dump db)
  | exception Shred_reference.Shred_error { path; message } ->
      Rejected (path, message, dump db)
  | exception Storage.Violation message -> Violated (message, dump db)
  | exception e -> Raised (Printexc.to_string e)

(* Every foreign key of [db]'s rows names a row of its parent table. *)
let foreign_keys_hold db =
  let cat = Storage.catalog db in
  List.for_all
    (fun (t : Rschema.table) ->
      List.for_all
        (fun (col, parent) ->
          let p = Rschema.table cat parent in
          let keys = Hashtbl.create 64 in
          let kpos = Storage.column_position db ~table:parent ~column:p.key in
          Seq.iter
            (fun (r : Storage.row) -> Hashtbl.replace keys r.(kpos) ())
            (Storage.scan db parent);
          let pos = Storage.column_position db ~table:t.tname ~column:col in
          Seq.for_all
            (fun (r : Storage.row) ->
              Rtype.is_null r.(pos) || Hashtbl.mem keys r.(pos))
            (Storage.scan db t.tname))
        t.fks)
    cat.tables

(* The reference's rows for [doc] alone publish back to [doc]. *)
let reference_round_trips m doc =
  match Shred_reference.shred m doc with
  | db -> ( try Xml.equal doc (Publish.document db m) with _ -> false)
  | exception _ -> false

let double_write message = contains message "a second value for column"

(* [now] (shredding [prefix_doc] then [doc]) against the reference's
   [old], where the shredder is meant to differ: it refuses a second
   value for one row's column, which the reference silently overwrote,
   and the store refuses rows that break the catalog's constraints.
   Either way a rejected document leaves nothing behind: the store
   holds exactly [prefix], the rows of the documents before it. *)
let agree_on_rejection m doc ~prefix now old =
  now = old
  ||
  match (now, old) with
  | Rejected (p, msg, d), Rejected (p', msg', _) when p = p' && msg = msg' ->
      d = prefix
  | Rejected (_, msg, d), Violated (msg', _) when msg = msg' -> d = prefix
  | Rejected (_, msg, d), Rows _
    when contains msg "foreign key"
         && not (foreign_keys_hold (Shred_reference.shred m doc)) ->
      d = prefix
  | Rejected (_, msg, d), _ when double_write msg ->
      d = prefix && not (reference_round_trips m doc)
  | _ -> false

(* the all-inlined and normalized IMDB configurations and every
   one-step neighbour of each, with and without order columns *)
let imdb_mappings =
  lazy
    (let schema = Annotate.schema Imdb.Stats.full Imdb.Schema.schema in
     let configs =
       List.concat_map
         (fun start -> start :: List.map snd (Space.neighbors start))
         [ Init.all_inlined schema; Init.normalize schema ]
     in
     check_int "configurations" 48 (List.length configs);
     List.concat_map
       (fun config ->
         List.map
           (fun order_columns ->
             match Mapping.of_pschema ~order_columns config with
             | Ok m -> m
             | Error es -> Alcotest.failf "mapping: %s" (String.concat "; " es))
           [ false; true ])
       configs)

let small_docs =
  Array.init 3 (fun seed ->
      lazy (Imdb.Gen.generate { (Imdb.Gen.scaled 0.0004) with seed }))

let small_doc seed = Lazy.force small_docs.(seed)

(* [f] applied to the [k]-th element in document order *)
let at_element k f doc =
  let i = ref (-1) in
  let rec go node =
    match node with
    | Xml.Text _ -> node
    | Xml.Element (t, a, c) ->
        incr i;
        if !i = k then f node else Xml.Element (t, a, List.map go c)
  in
  go doc

let mutations =
  [
    ( "renamed",
      function Xml.Element (_, a, c) -> Xml.Element ("bogus", a, c) | n -> n );
    ( "text replaced",
      function
      | Xml.Element (t, a, _) -> Xml.Element (t, a, [ Xml.Text "not a number" ])
      | n -> n );
    ( "attribute added",
      function
      | Xml.Element (t, a, c) -> Xml.Element (t, a @ [ ("zz", "1") ], c)
      | n -> n );
    ( "stray text",
      function
      | Xml.Element (t, a, c) -> Xml.Element (t, a, c @ [ Xml.Text "stray" ])
      | n -> n );
    ( "emptied",
      function Xml.Element (t, a, _) -> Xml.Element (t, a, []) | n -> n );
  ]

(* The Section 2 IMDB variant (an attribute, spliced Movie/TV types,
   a wildcard Review type), the bookstore, and two structured-wildcard
   schemas: recursive AnyElement, and a wildcard inlined under [item] *)
let other_schemas =
  let any =
    Xschema.make ~root:"AnyElement"
      [
        {
          Xschema.name = "AnyElement";
          body =
            Xtype.elem Label.Any
              (Xtype.rep (Xtype.ref_ "AnyElement") Xtype.star);
        };
      ]
  in
  let items =
    Xschema.make ~root:"Root"
      [
        {
          Xschema.name = "Root";
          body =
            Xtype.named_elem "root"
              (Xtype.rep
                 (Xtype.named_elem "item"
                    (Xtype.seq
                       [
                         Xtype.attr "id" Xtype.integer;
                         Xtype.elem Label.Any
                           (Xtype.seq
                              [
                                Xtype.named_elem "name" Xtype.string_;
                                Xtype.rep (Xtype.ref_ "Sub") Xtype.star;
                              ]);
                       ]))
                 Xtype.star);
        };
        { Xschema.name = "Sub"; body = Xtype.named_elem "sub" Xtype.integer };
      ]
  in
  [ Imdb.Schema.section2; books_schema; any; items ]

(* each schema's starting configurations and their one-step
   neighbours, with and without order columns, with documents drawn
   for the schema *)
let other_cases =
  lazy
    (List.concat_map
       (fun schema ->
         let s = Annotate.schema Pathstat.empty schema in
         let docs =
           List.map
             (fun seed ->
               doc_of_schema ~rng:(Random.State.make [| seed |]) schema)
             [ 1; 2 ]
         in
         List.concat_map
           (fun start -> start :: List.map snd (Space.neighbors start))
           [ Init.normalize s; Init.all_inlined s;
             Init.all_inlined ~union_to_options:false s ]
         |> List.concat_map (fun config ->
                List.filter_map
                  (fun order_columns ->
                    match Mapping.of_pschema ~order_columns config with
                    | Ok m -> Some (m, docs)
                    | Error _ -> None)
                  [ false; true ]))
       other_schemas)

let shredder_cases =
  [
    case "shredder agrees with the reference on every IMDB configuration"
      (fun () ->
        let d1 = small_doc 0 and d2 = small_doc 1 in
        List.iteri
          (fun i m ->
            let what = Printf.sprintf "mapping %d" i in
            let fresh = shred_new m [ d1 ] in
            check_bool (what ^ " shreds") true
              (match fresh with Rows _ -> true | _ -> false);
            check_bool (what ^ " rows") true (fresh = shred_old m [ d1 ]);
            (* onto an existing store: ids and order continue *)
            check_bool (what ^ " shred_into") true
              (shred_new m [ d1; d2 ] = shred_old m [ d1; d2 ]))
          (Lazy.force imdb_mappings));
    case "shredder agrees with the reference on other schemas" (fun () ->
        let stored = ref 0 in
        List.iteri
          (fun i (m, docs) ->
            let now = shred_new m docs in
            (match now with Rows _ -> incr stored | _ -> ());
            check_bool (Printf.sprintf "mapping %d" i) true
              (now = shred_old m docs))
          (Lazy.force other_cases);
        check_bool "most configurations store their documents" true
          (2 * !stored > List.length (Lazy.force other_cases)));
    prop "shredder agrees with the reference on rejected documents"
      ~count:300
      ~print:(fun (k, (name, _), mi) ->
        Printf.sprintf "element %d %s, mapping %d" k name mi)
      QCheck2.Gen.(
        triple (int_range 0 150) (oneofl mutations) (int_range 0 95))
      (fun (k, (_, f), mi) ->
        let m = List.nth (Lazy.force imdb_mappings) mi in
        let doc = at_element k f (small_doc 2) in
        let prefix =
          match shred_old m [ small_doc 0 ] with Rows d -> d | _ -> ""
        in
        agree_on_rejection m doc ~prefix
          (shred_new m [ small_doc 0; doc ])
          (shred_old m [ small_doc 0; doc ]));
  ]

let suite = parser_cases @ collector_cases @ shredder_cases
