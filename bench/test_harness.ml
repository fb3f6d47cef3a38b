(* The bench harness: its JSON escaping and float format, the rounds
   primitive's interleaving, --smoke writing no record, and the commit
   the env row names. *)

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
  let hash c =
    String.length c >= 40
    && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) c
  in
  let dirty = "-dirty" in
  (match List.assoc_opt "commit" (env ~jobs:1) with
  | Some (Str c) ->
      Alcotest.(check bool)
        "a commit hash, marked -dirty or not, or \"unavailable\"" true
        (c = "unavailable" || hash c
        || String.ends_with ~suffix:dirty c
           && hash (String.sub c 0 (String.length c - String.length dirty)))
  | _ -> Alcotest.fail "the env row has no commit");
  let h = String.make 40 'a' in
  Alcotest.(check string)
    "a clean tree names its hash" h
    (commit_spelling ~head:(Some h) ~dirty:false);
  Alcotest.(check string)
    "changed tracked files mark it" (h ^ dirty)
    (commit_spelling ~head:(Some h) ~dirty:true);
  Alcotest.(check string)
    "no hash outside a checkout" "unavailable"
    (commit_spelling ~head:None ~dirty:true)

(* In a fresh git checkout holding a record and a source file: the
   records [record] writes leave a clean tree clean for the next record
   of the same run, and a changed source file marks the commit. *)
let own_records_stay_clean () =
  if Sys.command "git --version >/dev/null 2>&1" <> 0 then Alcotest.skip ();
  let dir = Filename.temp_file "harness" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  let git args =
    Alcotest.(check int)
      ("git " ^ args) 0
      (Sys.command
         ("git -c user.name=harness -c user.email=harness@localhost \
           -c commit.gpgsign=false " ^ args ^ " >/dev/null 2>&1"))
  in
  let write file text =
    let oc = open_out file in
    output_string oc text;
    close_out oc
  in
  let commit_now () =
    match List.assoc_opt "commit" (env ~jobs:1) with
    | Some (Str c) -> c
    | _ -> Alcotest.fail "the env row has no commit"
  in
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () ->
      write "BENCH_harness_test.json" "[]\n";
      write "source.ml" "let x = 1\n";
      git "init -q";
      git "add BENCH_harness_test.json source.ml";
      git "commit -q -m seed";
      let head =
        match output_lines "git rev-parse HEAD" with
        | Some (h :: _) -> h
        | _ -> Alcotest.fail "no HEAD"
      in
      Alcotest.(check string)
        "a clean tree names its hash" head (commit_now ());
      record ~smoke:false ~jobs:1 "harness_test" [ [ ("v", Int 1) ] ];
      record ~smoke:false ~jobs:1 "harness_test" [ [ ("v", Int 2) ] ];
      Alcotest.(check string)
        "after two records the tree is still clean" head (commit_now ());
      write "source.ml" "let x = 2\n";
      Alcotest.(check string)
        "a changed source file marks it" (head ^ "-dirty") (commit_now ()))

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
          Alcotest.test_case "own records stay clean" `Quick
            own_records_stay_clean;
        ] );
    ]
