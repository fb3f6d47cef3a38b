let parse name text = Legodb_xquery.Xq_parse.parse ~name text

let texts =
  [|
    (* Q1 *)
    {| FOR $v IN document("imdbdata")/imdb/show
       WHERE $v/title = c1
       RETURN $v/title, $v/year, $v/type |};
    (* Q2 *)
    {| FOR $v IN document("imdbdata")/imdb/show
       WHERE $v/title = c1
       RETURN $v/title, $v/year |};
    (* Q3 *)
    {| FOR $v IN document("imdbdata")/imdb/show
       WHERE $v/year = 1999
       RETURN $v/title, $v/year |};
    (* Q4 *)
    {| FOR $v IN document("imdbdata")/imdb/show
       WHERE $v/title = c1
       RETURN $v/title, $v/year, $v/description |};
    (* Q5 *)
    {| FOR $v IN document("imdbdata")/imdb/show
       WHERE $v/title = c1
       RETURN $v/title, $v/year, $v/box_office |};
    (* Q6 *)
    {| FOR $v IN document("imdbdata")/imdb/show
       WHERE $v/title = c1
       RETURN $v/title, $v/year, $v/box_office, $v/description |};
    (* Q7 *)
    {| FOR $v IN document("imdbdata")/imdb/show
       RETURN $v/title, $v/year
       FOR $e IN $v/episodes
       WHERE $e/guest_director = c1
       RETURN $e/guest_director |};
    (* Q8 *)
    {| FOR $v IN document("imdbdata")/imdb/actor
       WHERE $v/name = c1
       RETURN $v/biography/birthday |};
    (* Q9 *)
    {| FOR $v IN document("imdbdata")/imdb/actor
       RETURN <result>
         $v/name
         FOR $v/biography $b where $b/birthday = c1
         RETURN $b/text
       </result> |};
    (* Q10 *)
    {| FOR $v IN document("imdbdata")/imdb/actor
       RETURN <result>
         $v/name
         FOR $v/biography $b where $b/birthday = c1
         RETURN $b/text, $b/birthday
       </result> |};
    (* Q11 *)
    {| FOR $v IN document("imdbdata")/imdb/actor
       RETURN <result>
         $v/name
         FOR $v/played $p where $p/character = c1
         RETURN $p/order_of_appearance
       </result> |};
    (* Q12 *)
    {| FOR $i IN document("imdbdata")/imdb
           $a in $i/actor,
           $m1 in $a/played,
           $d in $i/director,
           $m2 in $d/directed
       WHERE $a/name = $d/name AND $m1/title = $m2/title
       RETURN <result> $a/name $m1/title $m1/year </result> |};
    (* Q13 *)
    {| FOR $i IN document("imdbdata")/imdb
           $s in $i/show,
           $a in $i/actor,
           $m1 in $a/played,
           $d in $i/director,
           $m2 in $d/directed
       WHERE $a/name = $d/name AND $m1/title = $m2/title AND $m1/title = $s/title
       RETURN <result>
         $a/name $m1/title $m1/year
         FOR $v in $s/aka RETURN $v
       </result> |};
    (* Q14 *)
    {| FOR $i IN document("imdbdata")/imdb
           $a in $i/actor,
           $m1 in $a/played,
           $d in $i/director,
           $m2 in $d/directed
       WHERE $a/name = c1 AND $m1/title = $m2/title
       RETURN <result> $d/name $m1/title $m1/year </result> |};
    (* Q15 *)
    {| FOR $a IN document("imdbdata")/imdb/actor RETURN $a |};
    (* Q16 *)
    {| FOR $s IN document("imdbdata")/imdb/show RETURN $s |};
    (* Q17 *)
    {| FOR $d IN document("imdbdata")/imdb/director RETURN $d |};
    (* Q18 *)
    {| FOR $a IN document("imdbdata")/imdb/actor
       WHERE $a/name = c1
       RETURN $a |};
    (* Q19 *)
    {| FOR $s IN document("imdbdata")/imdb/show
       WHERE $s/title = c1
       RETURN $s |};
    (* Q20 *)
    {| FOR $d IN document("imdbdata")/imdb/director
       WHERE $d/name = c1
       RETURN $d |};
  |]

let cache = Array.make (Array.length texts) None

let text n =
  if n < 1 || n > Array.length texts then
    invalid_arg (Printf.sprintf "Imdb_queries.q: no query Q%d" n)
  else texts.(n - 1)

let q n =
  let text = text n in
  match cache.(n - 1) with
  | Some q -> q
  | None ->
      let parsed = parse (Printf.sprintf "Q%d" n) text in
      cache.(n - 1) <- Some parsed;
      parsed

let all = List.init (Array.length texts) (fun i -> q (i + 1))

let lookup_queries = List.map q [ 8; 9; 11; 12; 13 ]
let publish_queries = List.map q [ 15; 16; 17 ]

let fig5_texts =
  [|
    (* F1: title, year and NYT reviews of the 1999 shows *)
    {| FOR $v IN document("imdbdata")/imdb/show
       WHERE $v/year = 1999
       RETURN $v/title, $v/year, $v/reviews/nyt |};
    (* F2: publish everything *)
    {| FOR $v IN document("imdbdata")/imdb/show RETURN $v |};
    (* F3: description lookup *)
    {| FOR $v IN document("imdbdata")/imdb/show
       WHERE $v/title = c2
       RETURN $v/description |};
    (* F4: episodes by guest director *)
    {| FOR $v IN document("imdbdata")/imdb/show
       RETURN <result>
         $v/title
         $v/year
         FOR $e IN $v/episodes
         WHERE $e/guest_director = c4
         RETURN $e
       </result> |};
  |]

let fig5_cache = Array.make (Array.length fig5_texts) None

let fig5 n =
  if n < 1 || n > Array.length fig5_texts then
    invalid_arg (Printf.sprintf "Imdb_queries.fig5: no query %d" n)
  else
    match fig5_cache.(n - 1) with
    | Some q -> q
    | None ->
        let parsed =
          parse (Printf.sprintf "Fig5-Q%d" n) fig5_texts.(n - 1)
        in
        fig5_cache.(n - 1) <- Some parsed;
        parsed
