(* The benchmark's seeded inputs.  The programs under test only ever
   see what these functions generate: an XML document (the design
   sample or the serving corpus), query texts, and append documents.
   Every generator is a pure function of its seed. *)

open Legodb

let corpus_scale = 0.12

(* the IMDB generator at [scale] (default 0.12: ~13.8 MB of XML, the
   112,780-row corpus once shredded all-inlined) *)
let corpus_text ?(scale = corpus_scale) seed =
  Xml.to_string
    (Imdb.Gen.generate { (Imdb.Gen.scaled scale) with Imdb.Gen.seed })

(* serve_perf's four request templates: show by year, actor by name,
   actor joined with the shows they played in, and show by title *)
let t_year y =
  Printf.sprintf
    "FOR $v IN document(\"imdb\")/imdb/show WHERE $v/year = %s RETURN \
     $v/title, $v/year, $v/type"
    y

let t_name n =
  Printf.sprintf
    "FOR $a IN document(\"imdb\")/imdb/actor WHERE $a/name = \"%s\" RETURN \
     $a/name"
    n

let t_join n =
  Printf.sprintf
    "FOR $i IN document(\"imdb\")/imdb $a in $i/actor, $m1 in $a/played \
     WHERE $a/name = \"%s\" RETURN $a/name, $m1/title, $m1/year"
    n

let t_title s =
  Printf.sprintf
    "FOR $v IN document(\"imdb\")/imdb/show WHERE $v/title = \"%s\" RETURN \
     $v/title, $v/year"
    s

(* one instance of each template: what the serving mapping's equality
   indexes are derived from *)
let representatives = [ t_year "1900"; t_name "x"; t_join "x"; t_title "x" ]

let distinct xs =
  let seen = Hashtbl.create 1024 in
  List.filter
    (fun v ->
      if Hashtbl.mem seen v then false
      else begin
        Hashtbl.replace seen v ();
        true
      end)
    xs

(* every statement the templates form over the document's distinct
   constants, in a fixed order: the serve_churn request pool *)
let universe doc =
  let pool path = distinct (Xq_eval.path_values doc path) in
  let names = pool [ "actor"; "name" ] in
  Array.of_list
    (List.concat
       [
         List.map t_year (pool [ "show"; "year" ]);
         List.map t_name names;
         List.map t_join names;
         List.map t_title (pool [ "show"; "title" ]);
       ])

let hot_size = 1000

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* the serve_hot statements: [hot_size] distinct members of the
   universe, in Zipf rank order *)
let hot_set ~seed u =
  let a = shuffle (Random.State.make [| seed; 0x407 |]) u in
  Array.sub a 0 (min hot_size (Array.length a))

(* Zipf(1) over ranks 0..n-1: P(k) proportional to 1/(k+1) *)
let zipf n =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for k = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (k + 1));
    cdf.(k) <- !acc
  done;
  cdf

let zipf_draw cdf rng =
  let u = Random.State.float rng cdf.(Array.length cdf - 1) in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

(* request streams: the k-th draw depends only on the seed, so a run
   that sends more requests sees a longer prefix of the same stream *)
let hot_stream ~seed n =
  let rng = Random.State.make [| seed; 0x4d0 |] in
  let cdf = zipf n in
  fun () -> zipf_draw cdf rng

let churn_stream ~seed n =
  let rng = Random.State.make [| seed; 0xc4 |] in
  fun () -> Random.State.int rng n

(* the largest append document: 64 of them, framed, fit the server's
   64 KiB read, so a whole group arrives in one tick and commits on
   size instead of being split by the group-commit window *)
let append_max_bytes = 960

(* a tiny IMDB document (about 10 rows): the first one the generator
   yields, over this document's own run of generator seeds, that is at
   most [append_max_bytes] long *)
let append_doc ~seed i =
  let rec first k =
    let x =
      Xml.to_string
        (Imdb.Gen.generate
           {
             (Imdb.Gen.scaled 0.00001) with
             Imdb.Gen.seed = (seed * 1_000_003) + (i * 1009) + k;
           })
    in
    if String.length x <= append_max_bytes then x else first (k + 1)
  in
  first 0
