(* The query server: plan cache, batched parallel reads, snapshot
   lifecycle, and the frozen-snapshot isolation property. *)

open Legodb
open Test_util

(* a small served corpus: the default synthetic IMDB document under
   the all-inlined configuration *)
let setup () =
  let doc = Lazy.force small_imdb_doc in
  let stats = Collector.collect doc in
  let ps = Init.all_inlined (Annotate.schema stats Imdb.Schema.schema) in
  let m = mapping_of ps in
  (doc, m, Shred.shred m doc)

let q_titles =
  Xq_parse.parse ~name:"titles"
    "FOR $v IN document(\"x\")/imdb/show WHERE $v/year = 1990 RETURN \
     $v/title, $v/year"

(* the same template as [q_titles], another constant *)
let q_titles_1991 =
  Xq_parse.parse ~name:"titles_1991"
    "FOR $v IN document(\"x\")/imdb/show WHERE $v/year = 1991 RETURN \
     $v/title, $v/year"

let q_actors =
  Xq_parse.parse ~name:"actors"
    "FOR $v IN document(\"x\")/imdb/actor RETURN $v/name"

let q_join =
  Xq_parse.parse ~name:"join"
    "FOR $i IN document(\"x\")/imdb $a in $i/actor, $m1 in $a/played RETURN \
     $a/name, $m1/title"

let q_bad =
  Xq_parse.parse ~name:"bad" "FOR $v in imdb/nothing RETURN $v"

let suite =
  [
    case "repeated statement hits the plan cache, reply identical" (fun () ->
        let _, m, db = setup () in
        let s = Serve.create ~jobs:2 m db in
        let r1 = Serve.query s q_titles in
        check_bool "first is a miss" false r1.Serve.cached;
        let r2 = Serve.query s q_titles in
        check_bool "second is a hit" true r2.Serve.cached;
        check_bool "identical rows" true (r1.Serve.rows = r2.Serve.rows);
        (* statement identity is structural: a renamed copy still hits *)
        let renamed = { q_titles with Xq_ast.name = "other_name" } in
        check_bool "renamed query hits" true
          (Serve.query s renamed).Serve.cached;
        (* plans are per template: another constant hits too, and binds
           its own value *)
        let r3 = Serve.query s q_titles_1991 in
        check_bool "another constant hits" true r3.Serve.cached;
        check_bool "bound to its own constant" true
          (r3.Serve.rows
          = (Serve.query ~use_cache:false s q_titles_1991).Serve.rows);
        let st = Serve.stats s in
        check_int "one compilation" 1 st.Serve.cache_misses;
        check_int "three hits" 3 st.Serve.cache_hits);
    case "run_batch equals sequential queries" (fun () ->
        let _, m, db = setup () in
        let s = Serve.create ~jobs:4 m db in
        let reqs =
          Array.init 24 (fun i ->
              [| q_titles; q_actors; q_join |].(i mod 3))
        in
        let sequential =
          Array.map (fun q -> (Serve.query s q).Serve.rows) reqs
        in
        let batched = Serve.run_batch s reqs in
        Array.iteri
          (fun i r ->
            match r with
            | Ok (r : Serve.reply) ->
                check_bool
                  (Printf.sprintf "request %d identical" i)
                  true
                  (r.Serve.rows = sequential.(i))
            | Error e -> Alcotest.failf "request %d failed: %s" i e)
          batched);
    case "untranslatable request is an Error, batch survives" (fun () ->
        let _, m, db = setup () in
        let s = Serve.create ~jobs:2 m db in
        let batched = Serve.run_batch s [| q_titles; q_bad; q_actors |] in
        (match batched.(1) with
        | Error e -> check_bool "message" true (contains e "untranslatable")
        | Ok _ -> Alcotest.fail "expected an error for the bad request");
        (match (batched.(0), batched.(2)) with
        | Ok _, Ok _ -> ()
        | _ -> Alcotest.fail "good requests must still be answered");
        (* the server keeps serving afterwards *)
        check_bool "still serving" true
          ((Serve.query s q_titles).Serve.rows <> []
          || (Serve.query s q_actors).Serve.rows <> []));
    case "append is invisible until publish" (fun () ->
        let doc, m, db = setup () in
        let s = Serve.create ~jobs:2 m db in
        let before_rows = Storage.total_rows (Serve.snapshot s) in
        let before = (Serve.query s q_actors).Serve.rows in
        Serve.append s doc;
        check_int "snapshot rows unchanged" before_rows
          (Storage.total_rows (Serve.snapshot s));
        check_bool "answers unchanged" true
          ((Serve.query s q_actors).Serve.rows = before);
        check_int "pending" 1 (Serve.stats s).Serve.pending_appends;
        Serve.publish s;
        let st = Serve.stats s in
        check_int "published" 1 st.Serve.snapshots_published;
        check_int "no pending" 0 st.Serve.pending_appends;
        check_bool "snapshot grew" true
          (Storage.total_rows (Serve.snapshot s) > before_rows);
        check_int "answers doubled" (2 * List.length before)
          (List.length (Serve.query s q_actors).Serve.rows));
    case "snapshot is frozen, working store stays private" (fun () ->
        let _, m, db = setup () in
        let s = Serve.create m db in
        check_bool "snapshot frozen" true
          (Storage.is_frozen (Serve.snapshot s));
        (* a frozen store cannot be served: the working store must be
           able to take appends *)
        match Serve.create m (Serve.snapshot s) with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    case "per-request timeout degrades to an Error slot" (fun () ->
        let _, m, db = setup () in
        (* an injected clock that leaps 10s per reading: every request
           blows any small budget at its first block boundary *)
        let now = ref 0. in
        let clock () =
          now := !now +. 10.;
          !now
        in
        let s = Serve.create ~jobs:1 ~clock m db in
        let replies =
          Serve.run_batch ~timeout_ms:5 s [| q_titles; q_actors |]
        in
        Array.iter
          (function
            | Error e -> check_bool "names timeout" true (contains e "timeout")
            | Ok _ -> Alcotest.fail "expected a timeout")
          replies;
        (* a generous budget answers normally on the same server *)
        (match (Serve.run_batch ~timeout_ms:1_000_000 s [| q_titles |]).(0) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "unexpected error: %s" e);
        (* no budget at all: unchanged behavior *)
        match (Serve.run_batch s [| q_titles |]).(0) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "unexpected error: %s" e);
    case "summarize percentiles (nearest rank)" (fun () ->
        let lat = Array.init 100 (fun i -> float_of_int (i + 1) /. 1000.) in
        let s = Serve.summarize ~wall_s:0.5 lat in
        check_int "n" 100 s.Serve.n;
        check_bool "qps" true (Float.equal s.Serve.qps 200.);
        check_bool "p50" true (Float.equal s.Serve.p50_ms 50.);
        check_bool "p95" true (Float.equal s.Serve.p95_ms 95.);
        check_bool "p99" true (Float.equal s.Serve.p99_ms 99.);
        let empty = Serve.summarize ~wall_s:0. [||] in
        check_int "empty n" 0 empty.Serve.n);
    case "int and string constants answer by their own kind" (fun () ->
        (* both forms lift to one template; the constant's kind travels
           in the parameter vector, so whichever form is served first,
           each answers as its own uncached compile does *)
        let doc, _, _ = setup () in
        let year = List.hd (Xq_eval.path_values doc [ "show"; "year" ]) in
        let form c =
          Xq_parse.parse ~name:"year"
            (Printf.sprintf
               "FOR $v IN document(\"x\")/imdb/show WHERE $v/year = %s \
                RETURN $v/title, $v/year"
               c)
        in
        let as_int = form year
        and as_string = form (Printf.sprintf "%S" year) in
        List.iter
          (fun order ->
            let _, m, db = setup () in
            let s = Serve.create ~jobs:1 m db in
            List.iter
              (fun (q : Xq_ast.t) ->
                let want = (Serve.query ~use_cache:false s q).Serve.rows in
                check_bool "answer equals use_cache:false" true
                  ((Serve.query s q).Serve.rows = want))
              order;
            check_int "one compilation" 1 (Serve.stats s).Serve.cache_misses)
          [ [ as_int; as_string ]; [ as_string; as_int ] ];
        (* the two forms do answer differently: an int column matches
           only the int *)
        let _, m, db = setup () in
        let s = Serve.create ~jobs:1 m db in
        check_bool "int form matches" true
          ((Serve.query ~use_cache:false s as_int).Serve.rows <> []);
        check_bool "string form matches nothing" true
          ((Serve.query ~use_cache:false s as_string).Serve.rows = []));
    case "a publish recompiles each template once" (fun () ->
        let doc, m, db = setup () in
        let s = Serve.create ~jobs:2 m db in
        let reqs = [| q_titles; q_actors; q_titles_1991; q_join; q_titles |] in
        let serve () =
          Array.iter
            (fun r ->
              match r with
              | Ok (_ : Serve.reply) -> ()
              | Error e -> Alcotest.failf "request failed: %s" e)
            (Serve.run_batch s reqs)
        in
        serve ();
        check_int "three templates, three compilations" 3
          (Serve.stats s).Serve.cache_misses;
        Serve.append s doc;
        Serve.publish s;
        serve ();
        serve ();
        check_int "one recompilation per template" 6
          (Serve.stats s).Serve.cache_misses;
        Array.iter
          (fun q ->
            check_bool "answer equals use_cache:false" true
              ((Serve.query s q).Serve.rows
              = (Serve.query ~use_cache:false s q).Serve.rows))
          reqs);
    case "the template table is capped, never flushed" (fun () ->
        let _, m, db = setup () in
        let s = Serve.create ~jobs:1 m db in
        (* element tags differ, so every statement is its own template *)
        let tagged k =
          Xq_parse.parse ~name:"tagged"
            (Printf.sprintf
               "FOR $v IN document(\"x\")/imdb/show RETURN <t%d> $v/title \
                </t%d>"
               k k)
        in
        for k = 1 to 4096 do
          ignore (Serve.query s (tagged k))
        done;
        check_int "4096 compilations" 4096 (Serve.stats s).Serve.cache_misses;
        let over = tagged 4097 in
        let want = (Serve.query ~use_cache:false s over).Serve.rows in
        List.iter
          (fun what ->
            let r = Serve.query s over in
            check_bool (what ^ " is not cached") false r.Serve.cached;
            check_bool (what ^ " answers like use_cache:false") true
              (r.Serve.rows = want))
          [ "first"; "repeat" ];
        check_bool "the first template still hits" true
          (Serve.query s (tagged 1)).Serve.cached;
        let st = Serve.stats s in
        check_int "over the cap, each request compiles" 4098
          st.Serve.cache_misses;
        check_int "one hit" 1 st.Serve.cache_hits);
    case "error slots are classified by their kind" (fun () ->
        let _, m, db = setup () in
        (* every reading of the clock is a second later, so a zero
           budget runs out at the first block *)
        let t = ref 0. in
        let clock () = t := !t +. 1.; !t in
        let s = Serve.create ~jobs:1 ~clock m db in
        let kinds =
          Array.map
            (function
              | Ok _ -> None | Error text -> Some (Serve.error_kind text))
            (Serve.run_texts ~timeout_ms:0 s
               [|
                 "FOR $v IN imdb/show WHERE RETURN $v";
                 "FOR $v in imdb/nothing RETURN $v";
                 "FOR $v IN document(\"x\")/imdb/show RETURN $v/title";
               |])
        in
        check_bool "parse error" true (kinds.(0) = Some Serve.Parse_failure);
        check_bool "untranslatable" true (kinds.(1) = Some Serve.Untranslation);
        check_bool "timeout" true (kinds.(2) = Some Serve.Other_failure));
  ]

(* ------------------------------------------------------------------ *)
(* property: frozen-snapshot isolation under concurrency               *)
(* ------------------------------------------------------------------ *)

(* Readers running concurrently with a writer that appends toward the
   next snapshot must see answers bit-identical to the quiescent
   baseline: appends only become visible at the publish barrier. *)
let prop_frozen_readers =
  QCheck2.Test.make ~name:"concurrent readers see the frozen snapshot"
    ~count:10
    QCheck2.Gen.(list_size (int_range 1 12) (int_range 0 2))
    (fun picks ->
      let doc, m, db = setup () in
      let s = Serve.create ~jobs:4 m db in
      let pool = [| q_titles; q_actors; q_join |] in
      let baseline =
        List.map (fun i -> (Serve.query s pool.(i)).Serve.rows) picks
      in
      let reader i () = (Serve.query s pool.(i)).Serve.rows in
      let writer () =
        Serve.append s doc;
        []
      in
      let results =
        Par.run_list (writer :: List.map reader picks)
      in
      let read_back = List.tl results in
      let isolated = List.for_all2 (fun b r -> b = r) baseline read_back in
      (* the pending append surfaces exactly at the barrier *)
      let before = Storage.total_rows (Serve.snapshot s) in
      Serve.publish s;
      isolated && Storage.total_rows (Serve.snapshot s) > before)

(* Texts reach their template by shape.  Batches of statement texts —
   the serving templates in several spellings over the document's own
   values, and texts that do not lex, parse or translate — answer as
   the frozen parser then run_batch, reply for reply (a publish between
   batches makes known shapes compile again), with the same counters. *)
let prop_texts =
  QCheck2.Test.make ~name:"run_texts answers as parse then run_batch"
    ~count:12 QCheck2.Gen.int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let doc, m, _ = setup () in
      let values path = List.sort_uniq compare (Xq_eval.path_values doc path) in
      let quoted = List.map (Printf.sprintf "\"%s\"") in
      let pool =
        Array.of_list
          (values [ "show"; "year" ]
          @ quoted (values [ "actor"; "name" ] @ values [ "show"; "title" ])
          @ [ "c1"; "0"; "\"none\"" ])
      in
      let text () =
        match Random.State.int rng 8 with
        | 0 ->
            Test_xquery.pick rng
              [ "THIS IS NOT XQUERY (("; "FOR $v in imdb/nothing RETURN $v";
                "FOR $v IN imdb/show WHERE $v/title = \"open RETURN $v";
                "FOR $v IN imdb/show (: \000 :) RETURN $v/title" ]
        | _ ->
            let template = Test_xquery.pick rng Test_xquery.serving_templates in
            let template =
              if Random.State.bool rng then Test_xquery.respell rng template
              else template
            in
            Test_xquery.fill template
              (List.init (Test_xquery.holes template) (fun _ ->
                   pool.(Random.State.int rng (Array.length pool))))
      in
      let batches =
        List.init 3 (fun _ ->
            Array.init (1 + Random.State.int rng 12) (fun _ -> text ()))
      in
      let by_text = Serve.create ~jobs:1 m (Shred.shred m doc) in
      let by_ast = Serve.create ~jobs:1 m (Shred.shred m doc) in
      let reference texts =
        let parsed =
          Array.map
            (fun t ->
              match Xq_parse_reference.parse ~name:"net" t with
              | q -> Ok q
              | exception Xq_parse_reference.Parse_error { position; message }
                ->
                  Error
                    (Printf.sprintf "query parse error at offset %d: %s"
                       position message))
            texts
        in
        let answers =
          ref
            (Array.to_list
               (Serve.run_batch by_ast
                  (Array.of_list
                     (List.filter_map Result.to_option
                        (Array.to_list parsed)))))
        in
        Array.map
          (function
            | Error m -> Error m
            | Ok _ ->
                let r = List.hd !answers in
                answers := List.tl !answers;
                r)
          parsed
      in
      let strip =
        Array.map (function
          | Ok (r : Serve.reply) -> Ok (r.Serve.rows, r.Serve.cached)
          | Error m -> Error m)
      in
      let same =
        List.mapi
          (fun i texts ->
            if i = 2 then begin
              Serve.publish by_text;
              Serve.publish by_ast
            end;
            strip (Serve.run_texts by_text texts) = strip (reference texts))
          batches
      in
      let a = Serve.stats by_text and b = Serve.stats by_ast in
      List.for_all Fun.id same
      && a.Serve.served = b.Serve.served
      && a.Serve.cache_hits = b.Serve.cache_hits
      && a.Serve.cache_misses = b.Serve.cache_misses)

let props =
  [
    QCheck_alcotest.to_alcotest prop_frozen_readers;
    QCheck_alcotest.to_alcotest prop_texts;
  ]
