open Legodb
open Test_util

let mk defs root = Xschema.make ~root defs

let d name body = { Xschema.name; body }

let suite =
  [
    case "make rejects duplicates" (fun () ->
        match mk [ d "A" Xtype.string_; d "A" Xtype.integer ] "A" with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    case "find and update" (fun () ->
        let s = mk [ d "A" Xtype.string_ ] "A" in
        check_bool "find" true (Xtype.equal (Xschema.find s "A") Xtype.string_);
        let s = Xschema.update s "A" Xtype.integer in
        check_bool "updated" true (Xtype.equal (Xschema.find s "A") Xtype.integer));
    case "add preserves order" (fun () ->
        let s = mk [ d "A" Xtype.string_ ] "A" in
        let s = Xschema.add s "B" Xtype.integer in
        Alcotest.(check (list string)) "order" [ "A"; "B" ]
          (List.map (fun (x : Xschema.defn) -> x.name) (Xschema.defs s)));
    case "fresh_name avoids collisions" (fun () ->
        let s = mk [ d "A" Xtype.string_ ] "A" in
        check_string "fresh" "A'" (Xschema.fresh_name s "A");
        check_string "unused" "B" (Xschema.fresh_name s "B"));
    case "check: undefined reference" (fun () ->
        let s = mk [ d "A" (Xtype.ref_ "Missing") ] "A" in
        match Xschema.check s with
        | Error [ msg ] -> check_bool "mentions Missing" true (contains msg "Missing")
        | Error _ | Ok () -> Alcotest.fail "expected one error");
    case "check: undefined root" (fun () ->
        let s = mk [ d "A" Xtype.string_ ] "Root" in
        check_bool "error" true (Result.is_error (Xschema.check s)));
    case "check: unguarded recursion rejected" (fun () ->
        let s = mk [ d "A" (Xtype.seq [ Xtype.ref_ "A"; Xtype.string_ ]) ] "A" in
        check_bool "error" true (Result.is_error (Xschema.check s)));
    case "check: guarded recursion accepted" (fun () ->
        let s = mk [ d "A" (Xtype.named_elem "a" (Xtype.rep (Xtype.ref_ "A") Xtype.star)) ] "A" in
        check_bool "ok" true (Result.is_ok (Xschema.check s)));
    case "reachable and gc" (fun () ->
        let s =
          mk
            [
              d "A" (Xtype.named_elem "a" (Xtype.ref_ "B"));
              d "B" (Xtype.named_elem "b" Xtype.string_);
              d "Dead" (Xtype.named_elem "x" Xtype.string_);
            ]
            "A"
        in
        Alcotest.(check (list string)) "reachable" [ "A"; "B" ] (Xschema.reachable s);
        let s = Xschema.gc s in
        check_bool "gc dropped Dead" false (Xschema.mem s "Dead"));
    case "use_count and parents" (fun () ->
        let s =
          mk
            [
              d "A" (Xtype.named_elem "a" (Xtype.seq [ Xtype.ref_ "B"; Xtype.ref_ "B" ]));
              d "B" (Xtype.named_elem "b" Xtype.string_);
            ]
            "A"
        in
        check_int "use_count" 2 (Xschema.use_count s "B");
        Alcotest.(check (list string)) "parents" [ "A" ] (Xschema.referrers s "B");
        (* one index answers every name: definition order, each once *)
        let s =
          mk
            [
              d "C" (Xtype.named_elem "c" (Xtype.seq [ Xtype.ref_ "B"; Xtype.ref_ "A" ]));
              d "A" (Xtype.named_elem "a" (Xtype.seq [ Xtype.ref_ "B"; Xtype.ref_ "B" ]));
              d "B" (Xtype.named_elem "b" Xtype.string_);
            ]
            "C"
        in
        let referrers = Xschema.referrers s in
        Alcotest.(check (list string)) "B's" [ "C"; "A" ] (referrers "B");
        Alcotest.(check (list string)) "A's" [ "C" ] (referrers "A");
        Alcotest.(check (list string)) "the root's" [] (referrers "C"));
    case "recursive detection" (fun () ->
        let s =
          mk
            [
              d "A" (Xtype.named_elem "a" (Xtype.ref_ "B"));
              d "B" (Xtype.named_elem "b" (Xtype.optional (Xtype.ref_ "A")));
              d "C" (Xtype.named_elem "c" Xtype.string_);
            ]
            "A"
        in
        check_bool "A recursive" true (Xschema.recursive s "A");
        check_bool "B recursive" true (Xschema.recursive s "B");
        check_bool "C not" false (Xschema.recursive s "C"));
    case "nullable through refs" (fun () ->
        let s = mk [ d "A" (Xtype.rep Xtype.string_ Xtype.star) ] "A" in
        check_bool "nullable" true (Xschema.nullable s (Xtype.ref_ "A")));
    case "expand one level" (fun () ->
        let s = mk [ d "A" (Xtype.named_elem "a" Xtype.string_) ] "A" in
        check_bool "expanded" true
          (Xtype.equal (Xschema.expand s (Xtype.ref_ "A")) (Xtype.named_elem "a" Xtype.string_)));
    case "equal ignores order and stats" (fun () ->
        let s1 = mk [ d "A" Xtype.string_; d "B" Xtype.integer ] "A" in
        let s2 = mk [ d "B" Xtype.integer; d "A" Xtype.string_ ] "A" in
        check_bool "equal" true (Xschema.equal s1 s2));
    case "imdb schema well-formed" (fun () ->
        check_bool "ok" true (Result.is_ok (Xschema.check Imdb.Schema.schema));
        check_bool "s2 ok" true (Result.is_ok (Xschema.check Imdb.Schema.section2)));
  ]
