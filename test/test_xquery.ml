open Legodb
open Test_util

let parse = Xq_parse.parse ~name:"t"

(* ------------------------------------------------------------------ *)
(* the lexer and statement shapes, held to the frozen parser            *)
(* ------------------------------------------------------------------ *)

(* the four serving templates, and one with two outer and two nested
   slots; [@] marks a constant *)
let serving_templates =
  [
    "FOR $v IN document(\"imdb\")/imdb/show WHERE $v/year = @ RETURN \
     $v/title, $v/year, $v/type";
    "FOR $a IN document(\"imdb\")/imdb/actor WHERE $a/name = @ RETURN $a/name";
    "FOR $i IN document(\"imdb\")/imdb $a in $i/actor, $m1 in $a/played \
     WHERE $a/name = @ RETURN $a/name, $m1/title, $m1/year";
    "FOR $v IN document(\"imdb\")/imdb/show WHERE $v/title = @ RETURN \
     $v/title, $v/year";
    "FOR $v IN imdb/show WHERE $v/title = @ AND $v/year = @ RETURN <r> \
     $v/title FOR $v/episodes $e WHERE $e/guest_director = @ RETURN \
     $e/name </r>, FOR $v/reviews $w WHERE $w/nyt = @ RETURN $w/nyt";
  ]

let update_texts =
  [
    "INSERT imdb/show";
    "insert document(\"x\")/imdb/actor";
    "FOR $v IN document(\"x\")/imdb/show WHERE $v/title = c1 DELETE $v";
    "FOR $v IN document(\"x\")/imdb/show WHERE $v/year = 1999 SET $v/title \
     = c9";
    "FOR $v IN imdb/show $e IN $v/episodes WHERE $e/name = \"x\" SET \
     $e/name = 7";
    "FOR $v IN document(\"x\")/imdb/show DELETE $w";
  ]

(* matched case-insensitively: [parse]'s keywords and [parse_update]'s
   leading words *)
let keywords =
  [ "for"; "in"; "where"; "return"; "and"; "insert"; "delete"; "set" ]

let pick rng l = List.nth l (Random.State.int rng (List.length l))

let recase rng w =
  String.map
    (fun c ->
      if Random.State.bool rng then Char.uppercase_ascii c
      else Char.lowercase_ascii c)
    w

(* the same tokens under other whitespace, comments and keyword case *)
let respell rng text =
  let words =
    String.split_on_char ' '
      (String.map (function '\n' | '\t' | '\r' -> ' ' | c -> c) text)
    |> List.filter (fun w -> w <> "")
  in
  let sep () =
    pick rng
      [ " "; " "; " "; "  "; "\t"; "\n"; "\r\n"; " (: c :) ";
        "(: = \"x\" :)"; "\n(: a\n comment :)\n" ]
  in
  let word w =
    if List.mem (String.lowercase_ascii w) keywords then recase rng w else w
  in
  String.concat "" (List.concat_map (fun w -> [ sep (); word w ]) words)

let ident rng =
  let first = "abcxyzABCXYZ_" and rest = "abcxyzABCXYZ_0189" in
  String.init
    (1 + Random.State.int rng 6)
    (fun i ->
      let from = if i = 0 then first else rest in
      from.[Random.State.int rng (String.length from)])

(* a constant the parser accepts after [=]: a number (now and then with
   grouping commas), a string literal (NUL and [(:] included) or a bare
   identifier that is not a keyword *)
let valid_const rng =
  match Random.State.int rng 3 with
  | 0 ->
      let n = Random.State.int rng 2_000_000 in
      if Random.State.int rng 4 = 0 && n >= 1000 then
        Printf.sprintf "%d,%03d" (n / 1000) (n mod 1000)
      else string_of_int n
  | 1 ->
      "\""
      ^ String.init (Random.State.int rng 6) (fun _ ->
            pick rng [ 'a'; 'Z'; ' '; '1'; '\000'; '('; ':'; '='; '$' ])
      ^ "\""
  | _ ->
      let id = ident rng in
      if List.mem (String.lowercase_ascii id) keywords then id ^ "1" else id

(* what may stand after [=]: mostly valid constants, else a literal at
   or past [max_int] or a keyword *)
let any_const rng =
  if Random.State.int rng 5 > 0 then valid_const rng
  else
    pick rng
      [ "4611686018427387903"; "4611686018427387904"; "99999999999999999999";
        "4,611,686,018,427,387,904"; "0,0"; "007"; "and"; "FOR"; "Return";
        "in"; "where" ]

(* [template] with its holes filled by [consts], in order *)
let fill template consts =
  match String.split_on_char '@' template with
  | [] -> template
  | first :: rest ->
      String.concat ""
        (first :: List.concat (List.map2 (fun c p -> [ c; p ]) consts rest))

let holes template = List.length (String.split_on_char '@' template) - 1

(* byte-level damage at one random place *)
let damage rng text =
  let n = String.length text in
  let at = Random.State.int rng (n + 1) in
  let insert s = String.sub text 0 at ^ s ^ String.sub text at (n - at) in
  match Random.State.int rng 6 with
  | 0 -> String.sub text 0 at
  | 1 -> insert "\""
  | 2 -> insert "(:"
  | 3 -> insert "\000"
  | 4 ->
      insert (pick rng [ "$"; "<"; "</"; "="; ")"; "/"; ","; "#"; ">"; ":)" ])
  | _ when n = 0 -> text
  | _ ->
      let at = min at (n - 1) in
      String.sub text 0 at ^ String.sub text (at + 1) (n - at - 1)

(* a query or update text: an Appendix C text, an update statement or a
   serving template with random constants, half the time respelled,
   and a third of the time damaged *)
let gen_text =
  QCheck2.Gen.map
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let maybe_respell text =
        if Random.State.bool rng then respell rng text else text
      in
      let text =
        match Random.State.int rng 3 with
        | 0 -> maybe_respell (Imdb.Queries.text (1 + Random.State.int rng 20))
        | 1 -> maybe_respell (pick rng update_texts)
        | _ ->
            let template = maybe_respell (pick rng serving_templates) in
            fill template (List.init (holes template) (fun _ -> any_const rng))
      in
      if Random.State.int rng 3 = 0 then damage rng text else text)
    QCheck2.Gen.int

(* one path step of a template renamed: another statement *)
let rename_step rng template =
  let steps = [ "title"; "year"; "name"; "show"; "actor"; "played"; "nyt" ] in
  let from = pick rng steps and into = pick rng steps in
  let n = String.length from in
  let rec find i =
    if i + n > String.length template then template
    else if String.sub template i n = from then
      String.sub template 0 i ^ into
      ^ String.sub template (i + n) (String.length template - i - n)
    else find (i + 1)
  in
  find 0

(* two texts of one serving template: the same spelling with other
   constants ([true]), or another spelling, a renamed path step or a
   damaged copy *)
let gen_pair =
  QCheck2.Gen.map
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let template = pick rng serving_templates in
      let spelled =
        if Random.State.bool rng then respell rng template else template
      in
      let consts () = List.init (holes template) (fun _ -> valid_const rng) in
      let a = fill spelled (consts ()) in
      match Random.State.int rng 4 with
      | 0 -> (a, fill spelled (consts ()), true)
      | 1 -> (a, fill (respell rng template) (consts ()), false)
      | 2 -> (a, fill (rename_step rng spelled) (consts ()), false)
      | _ -> (a, damage rng (fill spelled (consts ())), false))
    QCheck2.Gen.int

let outcome f text =
  match f text with
  | v -> Ok v
  | exception Xq_parse.Parse_error { position; message } ->
      Error (position, message)

let reference_outcome f text =
  match f text with
  | v -> Ok v
  | exception Xq_parse_reference.Parse_error { position; message } ->
      Error (position, message)

let prop name ~count gen ~print f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen f)

let print_pair (a, b, _) = Printf.sprintf "%S / %S" a b

let suite =
  [
    case "simple FLWR" (fun () ->
        let q =
          parse
            {| FOR $v IN document("imdbdata")/imdb/show
               WHERE $v/title = c1
               RETURN $v/title, $v/year |}
        in
        check_int "bindings" 1 (List.length q.Xq_ast.body.bindings);
        check_int "preds" 1 (List.length q.Xq_ast.body.where);
        check_int "returns" 2 (List.length q.Xq_ast.body.return);
        match q.Xq_ast.body.bindings with
        | [ ("v", Xq_ast.Doc [ "imdb"; "show" ]) ] -> ()
        | _ -> Alcotest.fail "unexpected binding");
    case "bare document path" (fun () ->
        let q = parse "FOR $v in imdb/show RETURN $v" in
        match q.Xq_ast.body.bindings with
        | [ ("v", Xq_ast.Doc [ "imdb"; "show" ]) ] -> ()
        | _ -> Alcotest.fail "unexpected binding");
    case "variable-anchored binding" (fun () ->
        let q = parse "FOR $v in imdb/show $e IN $v/episodes RETURN $e" in
        match q.Xq_ast.body.bindings with
        | [ _; ("e", Xq_ast.Var_path ("v", [ "episodes" ])) ] -> ()
        | _ -> Alcotest.fail "unexpected bindings");
    case "reversed binding form" (fun () ->
        let q = parse "FOR $v in imdb/show RETURN $v/title FOR $v/episodes $e RETURN $e/name" in
        match q.Xq_ast.body.return with
        | [ Xq_ast.R_path _; Xq_ast.R_nested f ] -> (
            match f.Xq_ast.bindings with
            | [ ("e", Xq_ast.Var_path ("v", [ "episodes" ])) ] -> ()
            | _ -> Alcotest.fail "bad nested binding")
        | _ -> Alcotest.fail "bad returns");
    case "integer and symbolic constants" (fun () ->
        let q = parse "FOR $v in imdb/show WHERE $v/year = 1999 AND $v/title = c2 RETURN $v" in
        match q.Xq_ast.body.where with
        | [ { right = Xq_ast.O_const (Xq_ast.C_int 1999); _ };
            { right = Xq_ast.O_const (Xq_ast.C_string "c2"); _ } ] -> ()
        | _ -> Alcotest.fail "bad constants");
    case "numbers with grouping commas" (fun () ->
        let q = parse "FOR $v in imdb/show WHERE $v/box_office = 1,234,567 RETURN $v" in
        match q.Xq_ast.body.where with
        | [ { right = Xq_ast.O_const (Xq_ast.C_int 1234567); _ } ] -> ()
        | _ -> Alcotest.fail "comma number not parsed");
    case "path-to-path predicate" (fun () ->
        let q =
          parse
            {| FOR $i in imdb $a in $i/actor, $d in $i/director
               WHERE $a/name = $d/name RETURN $a/name |}
        in
        check_int "three bindings" 3 (List.length q.Xq_ast.body.bindings);
        match q.Xq_ast.body.where with
        | [ { left = ("a", [ "name" ]); right = Xq_ast.O_path ("d", [ "name" ]) } ] -> ()
        | _ -> Alcotest.fail "bad predicate");
    case "element constructor in return" (fun () ->
        let q = parse "FOR $v in imdb/actor RETURN <result> $v/name $v/biography </result>" in
        match q.Xq_ast.body.return with
        | [ Xq_ast.R_elem ("result", [ _; _ ]) ] -> ()
        | _ -> Alcotest.fail "bad constructor");
    case "nested FLWR with lowercase keywords" (fun () ->
        let q =
          parse
            {| for $v in imdb/actor
               return <result> $v/name
                 for $v/played $p where $p/character = c1
                 return $p/order_of_appearance
               </result> |}
        in
        match q.Xq_ast.body.return with
        | [ Xq_ast.R_elem (_, [ _; Xq_ast.R_nested f ]) ] ->
            check_int "nested pred" 1 (List.length f.Xq_ast.where)
        | _ -> Alcotest.fail "bad nesting");
    case "comments ignored" (fun () ->
        let q = parse "(: hi :) FOR $v in imdb/show (: there :) RETURN $v" in
        check_int "binding" 1 (List.length q.Xq_ast.body.bindings));
    case "all appendix queries parse and check" (fun () ->
        List.iteri
          (fun i q ->
            match Xq_ast.check q with
            | Ok () -> ()
            | Error es ->
                Alcotest.failf "Q%d: %s" (i + 1) (String.concat "; " es))
          Imdb.Queries.all;
        check_int "twenty" 20 (List.length Imdb.Queries.all));
    case "figure 5 queries parse" (fun () ->
        for i = 1 to 4 do
          match Xq_ast.check (Imdb.Queries.fig5 i) with
          | Ok () -> ()
          | Error es -> Alcotest.failf "fig5 %d: %s" i (String.concat "; " es)
        done);
    case "check rejects unbound variables" (fun () ->
        let q = parse "FOR $v in imdb/show RETURN $w/title" in
        check_bool "error" true (Result.is_error (Xq_ast.check q)));
    case "check rejects duplicate bindings" (fun () ->
        let q = parse "FOR $v in imdb/show $v in imdb/actor RETURN $v" in
        check_bool "error" true (Result.is_error (Xq_ast.check q)));
    case "parse errors carry positions" (fun () ->
        (match parse "FOR v IN x RETURN $v" with
        | _ -> Alcotest.fail "expected error"
        | exception Xq_parse.Parse_error { position; _ } ->
            check_bool "position sane" true (position >= 0)));
    case "trailing tokens rejected" (fun () ->
        match parse "FOR $v in imdb/show RETURN $v extra garbage (" with
        | _ -> Alcotest.fail "expected error"
        | exception Xq_parse.Parse_error _ -> ());
    case "workload normalization" (fun () ->
        let w = Workload.of_queries Imdb.Queries.lookup_queries in
        check_bool "sums to one" true (abs_float (Workload.total_weight w -. 1.) < 1e-9));
    case "workload mix" (fun () ->
        let w = Workload.mix 0.25 Imdb.Workloads.lookup Imdb.Workloads.publish in
        check_bool "sums to one" true (abs_float (Workload.total_weight w -. 1.) < 1e-9);
        check_int "all queries" 8 (List.length (Workload.queries w)));
    case "reference evaluator: books lookups" (fun () ->
        let q =
          parse {| FOR $b IN document("x")/store/book WHERE $b/isbn = 222 RETURN $b/title |}
        in
        check_int "one book" 1 (Xq_eval.count_bindings books_doc q);
        match Xq_eval.eval_strings books_doc q with
        | [ [ "Database Systems" ] ] -> ()
        | _ -> Alcotest.fail "bad eval");
    case "reference evaluator: joins" (fun () ->
        let q =
          parse
            {| FOR $b IN document("x")/store/book $a IN $b/author
               RETURN $a/name |}
        in
        check_int "four author bindings" 4 (Xq_eval.count_bindings books_doc q));
    case "pp/parse round trip: every IMDB query" (fun () ->
        (* [legodb query --connect] replays workloads as pp-printed
           text, so every query the workloads can name must survive
           print-then-reparse with its body intact — Q9/Q11/Q13's
           parenthesized nested FLWRs once did not *)
        List.iter
          (fun (q : Xq_ast.t) ->
            let text = Format.asprintf "%a" Xq_ast.pp q in
            match Xq_parse.parse ~name:q.Xq_ast.name text with
            | q' ->
                check_bool
                  (Printf.sprintf "%s body intact" q.Xq_ast.name)
                  true
                  (q'.Xq_ast.body = q.Xq_ast.body)
            | exception Xq_parse.Parse_error { position; message } ->
                Alcotest.failf "%s does not reparse (offset %d: %s)"
                  q.Xq_ast.name position message)
          Imdb.Queries.all);
    case "reference evaluator: existential predicate" (fun () ->
        let q =
          parse
            {| FOR $b IN document("x")/store/book
               WHERE $b/author/name = Ullman
               RETURN $b/title |}
        in
        check_int "one match" 1 (Xq_eval.count_bindings books_doc q));
    case "lift numbers outer slots first, then nested in return order"
      (fun () ->
        let q =
          parse
            {| FOR $v IN imdb/show WHERE $v/title = "a" AND $v/year = 1990
               RETURN <r> $v/title
                 FOR $v/episodes $e WHERE $e/guest_director = "b"
                 RETURN $e/name </r>,
               FOR $v/reviews $w WHERE $w/nyt = 7 RETURN $w/nyt |}
        in
        let body, consts = Xq_ast.lift q.Xq_ast.body in
        check_bool "constants in slot order" true
          (consts
          = [| Xq_ast.C_string "a"; C_int 1990; C_string "b"; C_int 7 |]);
        let slots (f : Xq_ast.flwr) =
          List.map (fun (p : Xq_ast.pred) -> p.right) f.where
        in
        (match body.return with
        | [
            Xq_ast.R_elem (_, [ _; Xq_ast.R_nested inner ]);
            Xq_ast.R_nested last;
          ] ->
            check_bool "outer" true
              (slots body = [ Xq_ast.O_param 0; O_param 1 ]);
            check_bool "nested, in return order" true
              (slots inner = [ Xq_ast.O_param 2 ] && slots last = [ O_param 3 ])
        | _ -> Alcotest.fail "bad template shape");
        (* the constant's kind lives in the vector, not the template *)
        let string_year =
          parse
            {| FOR $v IN imdb/show WHERE $v/title = "a" AND $v/year = "1990"
               RETURN <r> $v/title
                 FOR $v/episodes $e WHERE $e/guest_director = "b"
                 RETURN $e/name </r>,
               FOR $v/reviews $w WHERE $w/nyt = 7 RETURN $w/nyt |}
        in
        check_bool "same template" true
          (fst (Xq_ast.lift string_year.Xq_ast.body) = body);
        (* templates are not statements: the tree evaluator refuses one *)
        match
          Xq_eval.count_bindings (Lazy.force small_imdb_doc)
            { q with Xq_ast.body }
        with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    prop "parse and parse_update agree with the frozen parser" ~count:3000
      gen_text ~print:(Printf.sprintf "%S") (fun text ->
        outcome (Xq_parse.parse ~name:"t") text
        = reference_outcome (Xq_parse_reference.parse ~name:"t") text
        && outcome (Xq_parse.parse_update ~name:"u") text
           = reference_outcome
               (Xq_parse_reference.parse_update ~name:"u")
               text);
    prop "shape raises exactly where the lexer does" ~count:3000 gen_text
      ~print:(Printf.sprintf "%S") (fun text ->
        outcome (fun t -> ignore (Xq_parse.shape t)) text
        = reference_outcome
            (fun t -> ignore (Xq_parse_reference.tokenize t))
            text);
    prop "shape's constants are lift's, in slot order" ~count:3000 gen_text
      ~print:(Printf.sprintf "%S") (fun text ->
        match Xq_parse.parse text with
        | exception Xq_parse.Parse_error _ -> true
        | q -> (
            match Xq_parse.shape text with
            | Some (_, consts) -> consts = snd (Xq_ast.lift q.Xq_ast.body)
            | None -> String.contains text '\000'));
    prop "texts with equal shape keys lift to equal bodies" ~count:3000
      gen_pair ~print:print_pair (fun (a, b, same_spelling) ->
        let key t =
          match Xq_parse.shape t with
          | Some (k, _) -> Some k
          | None -> None
          | exception Xq_parse.Parse_error _ -> None
        in
        let body t =
          match Xq_parse.parse t with
          | q -> Some (fst (Xq_ast.lift q.Xq_ast.body))
          | exception Xq_parse.Parse_error _ -> None
        in
        (not same_spelling || (key a <> None && key a = key b))
        && (key a = None || key a <> key b || body a = body b));
    case "shape keys: constants masked, everything else verbatim" (fun () ->
        let shape = Xq_parse.shape in
        (match shape "FOR $v IN imdb/show WHERE $v/year = 1,990 AND $v/title \
                      = \"a b\" RETURN (FOR $v/aka $k WHERE $k/x = c1 \
                      RETURN $k)" with
        | Some (key, consts) ->
            check_string "key"
              "FOR $v IN imdb/show WHERE $v/year = \000 AND $v/title = \000 \
               RETURN (FOR $v/aka $k WHERE $k/x = \000 RETURN $k)"
              key;
            check_bool "constants" true
              (consts
              = [| Xq_ast.C_int 1990; C_string "a b"; C_string "c1" |])
        | None -> Alcotest.fail "expected a shape");
        (* a constant-free text is its own key *)
        check_bool "no constants" true
          (shape "FOR $s IN imdb/show RETURN $s"
          = Some ("FOR $s IN imdb/show RETURN $s", [||]));
        (* a NUL inside a constant is masked with it; one in a comment
           or the document name cannot be told from a mask *)
        check_bool "NUL in a constant" true
          (shape "FOR $v IN imdb/show WHERE $v/t = \"a\000\" RETURN $v"
          = Some
              ( "FOR $v IN imdb/show WHERE $v/t = \000 RETURN $v",
                [| Xq_ast.C_string "a\000" |] ));
        check_bool "NUL in a comment" true
          (shape "FOR $v IN imdb/show (: \000 :) WHERE $v/t = 1 RETURN $v"
          = None);
        check_bool "NUL in the document name" true
          (shape "FOR $v IN document(\"\000\")/imdb/show RETURN $v" = None);
        (* a keyword or a path after [=] is no constant *)
        check_bool "keyword and path operands stay" true
          (shape "FOR $v IN imdb/show WHERE $v/t = and $v/u = $v/t RETURN $v"
          = Some
              ( "FOR $v IN imdb/show WHERE $v/t = and $v/u = $v/t RETURN $v",
                [||] )));
  ]
