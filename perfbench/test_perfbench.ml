(* Tests of the benchmark's own helpers: order statistics on known
   inputs, the seeded generators' determinism, and the serve_hot hot
   set's size. *)

open Perfbench

let close = Alcotest.float 1e-9

let stats () =
  Alcotest.check close "median odd" 3. (Bstat.median [| 5.; 1.; 3. |]);
  Alcotest.check close "median even" 2.5 (Bstat.median [| 4.; 1.; 3.; 2. |]);
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check close "p50 nearest rank" 50. (Bstat.percentile 50. xs);
  Alcotest.check close "p99 nearest rank" 99. (Bstat.percentile 99. xs);
  Alcotest.check close "p100 is the max" 100. (Bstat.percentile 100. xs);
  Alcotest.(check int) "one sample beyond p99" 1 (Bstat.beyond 99. xs);
  (* statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25] *)
  let one_to_ten = Array.init 10 (fun i -> float_of_int (i + 1)) in
  let q1, q3 = Bstat.quartiles one_to_ten in
  Alcotest.check close "q1" 2.75 q1;
  Alcotest.check close "q3" 8.25 q3;
  (* statistics.quantiles([1, 2], n=4) = [0.75, 2.25] *)
  let q1, q3 = Bstat.quartiles [| 2.; 1. |] in
  Alcotest.check close "q1 of two" 0.75 q1;
  Alcotest.check close "q3 of two" 2.25 q3;
  Alcotest.check close "iqr share" 1. (Bstat.iqr_share one_to_ten);
  (* equal weights: the lower median *)
  Alcotest.check close "weighted median, equal weights" 2.
    (Bstat.weighted_median [| 4.; 1.; 3.; 2. |]
       ~weights:[| 1.; 1.; 1.; 1. |]);
  (* slices weighted by their own rate: the stalled slice weighs nothing,
     the fast ones carry most of the completions *)
  let rates = [| 0.; 100.; 300.; 300.; 200. |] in
  Alcotest.check close "weighted median, rate-weighted slices" 300.
    (Bstat.weighted_median rates ~weights:rates);
  Alcotest.check close "weighted median, one heavy sample" 9.
    (Bstat.weighted_median [| 1.; 9.; 5. |] ~weights:[| 1.; 10.; 1. |])

let prefix f n = List.init n (fun _ -> f ())

let generators () =
  let a = Inputs.corpus_text ~scale:0.002 7 in
  let b = Inputs.corpus_text ~scale:0.002 7 in
  Alcotest.(check bool) "corpus: same seed, same bytes" true (String.equal a b);
  Alcotest.(check bool) "corpus: other seed, other bytes" false
    (String.equal a (Inputs.corpus_text ~scale:0.002 8));
  Alcotest.(check (list int)) "hot stream: same seed, same draws"
    (prefix (Inputs.hot_stream ~seed:3 1000) 500)
    (prefix (Inputs.hot_stream ~seed:3 1000) 500);
  Alcotest.(check bool) "hot stream: other seed, other draws" false
    (prefix (Inputs.hot_stream ~seed:3 1000) 500
    = prefix (Inputs.hot_stream ~seed:4 1000) 500);
  Alcotest.(check (list int)) "churn stream: same seed, same draws"
    (prefix (Inputs.churn_stream ~seed:3 44000) 500)
    (prefix (Inputs.churn_stream ~seed:3 44000) 500);
  Alcotest.(check bool) "churn stream: other seed, other draws" false
    (prefix (Inputs.churn_stream ~seed:3 44000) 500
    = prefix (Inputs.churn_stream ~seed:4 44000) 500);
  Alcotest.(check string) "append doc: same seed, same bytes"
    (Inputs.append_doc ~seed:5 9) (Inputs.append_doc ~seed:5 9);
  Alcotest.(check bool) "append doc: other seed, other bytes" false
    (Inputs.append_doc ~seed:5 9 = Inputs.append_doc ~seed:6 9)

let hot_set () =
  let doc = Legodb.Xml_parse.parse_string (Inputs.corpus_text 11) in
  let u = Inputs.universe doc in
  let hot = Inputs.hot_set ~seed:11 u in
  Alcotest.(check int) "hot set size" Inputs.hot_size (Array.length hot);
  Alcotest.(check int) "hot statements are distinct" Inputs.hot_size
    (List.length (Inputs.distinct (Array.to_list hot)));
  Alcotest.(check bool) "the hot set fits the 4096-entry caches" true
    (Array.length hot <= 4096);
  Alcotest.(check bool) "the churn pool overflows them tenfold" true
    (Array.length u >= 10 * 4096)

let () =
  Alcotest.run "perfbench"
    [
      ( "bstat",
        [ Alcotest.test_case "order statistics on known inputs" `Quick stats ]
      );
      ( "inputs",
        [
          Alcotest.test_case "seeded generators are deterministic" `Quick
            generators;
          Alcotest.test_case "serve_hot hot set size" `Quick hot_set;
        ] );
    ]
