open Legodb
open Test_util

let suite =
  [
    case "raw imdb schema is not a p-schema" (fun () ->
        match Pschema.check Imdb.Schema.schema with
        | Error vs -> check_bool "violations" true (List.length vs >= 3)
        | Ok _ -> Alcotest.fail "expected violations");
    case "violations point at offending elements" (fun () ->
        match Pschema.check Imdb.Schema.schema with
        | Error vs ->
            List.iter
              (fun (v : Pschema.violation) ->
                match Xtype.subterm (Xschema.find Imdb.Schema.schema v.tname) v.loc with
                | Some (Xtype.Elem _) -> ()
                | Some t -> Alcotest.failf "violation at non-element: %s" (Xtype.to_string t)
                | None -> Alcotest.fail "dangling violation location")
              vs
        | Ok _ -> Alcotest.fail "expected violations");
    case "normalized schema is a p-schema" (fun () ->
        check_bool "ps0" true (Pschema.is_pschema (Init.normalize Imdb.Schema.schema)));
    case "section2 schema is already a p-schema" (fun () ->
        check_bool "ok" true (Pschema.is_pschema Imdb.Schema.section2));
    case "multi-occurrence element violates" (fun () ->
        let s =
          Xschema.make ~root:"R"
            [
              {
                Xschema.name = "R";
                body =
                  Xtype.named_elem "r"
                    (Xtype.rep (Xtype.named_elem "x" Xtype.string_) Xtype.star);
              };
            ]
        in
        check_bool "violates" false (Pschema.is_pschema s));
    case "optional element is fine" (fun () ->
        let s =
          Xschema.make ~root:"R"
            [
              {
                Xschema.name = "R";
                body =
                  Xtype.named_elem "r"
                    (Xtype.optional (Xtype.named_elem "x" Xtype.string_));
              };
            ]
        in
        check_bool "ok" true (Pschema.is_pschema s));
    case "union of elements violates, union of refs is fine" (fun () ->
        let mk body =
          Xschema.make ~root:"R"
            ({ Xschema.name = "R"; body = Xtype.named_elem "r" body }
            ::
            [
              { Xschema.name = "A"; body = Xtype.named_elem "a" Xtype.string_ };
              { Xschema.name = "B"; body = Xtype.named_elem "b" Xtype.string_ };
            ])
        in
        check_bool "elements" false
          (Pschema.is_pschema
             (mk
                (Xtype.choice
                   [
                     Xtype.named_elem "a" Xtype.string_;
                     Xtype.named_elem "b" Xtype.string_;
                   ])));
        check_bool "refs" true
          (Pschema.is_pschema
             (mk (Xtype.choice [ Xtype.ref_ "A"; Xtype.ref_ "B" ]))));
    case "scalar choice allowed (AnyScalar)" (fun () ->
        let s =
          Xschema.make ~root:"R"
            [
              {
                Xschema.name = "R";
                body = Xtype.choice [ Xtype.integer; Xtype.string_ ];
              };
            ]
        in
        check_bool "ok" true (Pschema.is_pschema s));
    case "attribute under repetition violates" (fun () ->
        let s =
          Xschema.make ~root:"R"
            [
              {
                Xschema.name = "R";
                body =
                  Xtype.named_elem "r"
                    (Xtype.Rep
                       ( Xtype.attr "x" Xtype.string_,
                         { Xtype.lo = 0; hi = Xtype.Unbounded } ));
              };
            ]
        in
        check_bool "violates" false (Pschema.is_pschema s));
    case "recursive type through element is fine" (fun () ->
        let s =
          Xschema.make ~root:"R"
            [
              {
                Xschema.name = "R";
                body = Xtype.named_elem "r" (Xtype.rep (Xtype.ref_ "R") Xtype.star);
              };
            ]
        in
        check_bool "ok" true (Pschema.is_pschema s));
    case "ill-formed schema reported by check" (fun () ->
        let s =
          Xschema.make ~root:"R"
            [ { Xschema.name = "R"; body = Xtype.ref_ "Nope" } ]
        in
        check_bool "error" true (Result.is_error (Pschema.check s)));
  ]
