(* The bench harness: its JSON escaping and float format, the rounds
   primitive's interleaving, and --smoke writing no record. *)

open Harness

let render_one v = render [ [ ("v", v) ] ]

let escapes () =
  Alcotest.(check string)
    "quote, backslash, newline, control byte, non-ASCII byte"
    "[\n  {\"v\": \"a\\\"b\\\\c\\u000ad\\u0001e\xe9\"}\n]\n"
    (render_one (Str "a\"b\\c\nd\x01e\xe9"))

let non_finite_is_null () =
  Alcotest.(check string)
    "nan" "[\n  {\"v\": null}\n]\n"
    (render_one (Num nan));
  Alcotest.(check string)
    "infinity" "[\n  {\"v\": null}\n]\n"
    (render_one (Num infinity));
  Alcotest.(check string)
    "finite" "[\n  {\"v\": 0.125}\n]\n"
    (render_one (Num 0.125))

let rounds_interleave () =
  let order = ref [] in
  let side name i () =
    order := name :: !order;
    i
  in
  let samples = rounds 4 [ side "a" 1; side "b" 2 ] in
  Alcotest.(check (list string))
    "the first side swaps each round"
    [ "a"; "b"; "b"; "a"; "a"; "b"; "b"; "a" ]
    (List.rev !order);
  Alcotest.(check (list (array int)))
    "four samples per closure"
    [ [| 1; 1; 1; 1 |]; [| 2; 2; 2; 2 |] ]
    samples

let smoke_writes_nothing () =
  let dir = Filename.temp_file "harness" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect
    ~finally:(fun () -> Sys.chdir cwd)
    (fun () ->
      record ~smoke:true ~jobs:1 "harness_test" [ [ ("v", Int 1) ] ];
      Alcotest.(check bool)
        "no file under --smoke" false
        (Sys.file_exists "BENCH_harness_test.json");
      record ~smoke:false ~jobs:1 "harness_test" [ [ ("v", Int 1) ] ];
      Alcotest.(check bool)
        "a file otherwise" true
        (Sys.file_exists "BENCH_harness_test.json");
      Sys.remove "BENCH_harness_test.json");
  Sys.rmdir dir

let env_names_commit () =
  match List.assoc_opt "commit" (env ~jobs:1) with
  | Some (Str c) ->
      Alcotest.(check bool)
        "a commit hash or \"unavailable\"" true
        (c = "unavailable"
        || String.length c >= 40
           && String.for_all
                (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
                c)
  | _ -> Alcotest.fail "the env row has no commit"

let () =
  Alcotest.run "harness"
    [
      ( "harness",
        [
          Alcotest.test_case "escaper" `Quick escapes;
          Alcotest.test_case "non-finite floats" `Quick non_finite_is_null;
          Alcotest.test_case "rounds interleave" `Quick rounds_interleave;
          Alcotest.test_case "smoke writes nothing" `Quick smoke_writes_nothing;
          Alcotest.test_case "env names its commit" `Quick env_names_commit;
        ] );
    ]
