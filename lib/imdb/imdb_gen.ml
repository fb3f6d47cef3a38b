open Legodb_xml

type params = {
  seed : int;
  shows : int;
  movie_frac : float;
  aka_avg : float;
  reviews_avg : float;
  review_sources : (string * float) list;
  review_width : int;
  episodes_avg : float;
  directors : int;
  directed_avg : float;
  actors : int;
  played_avg : float;
  award_frac : float;
  biography_frac : float;
  year_range : int * int;
}

let default =
  {
    seed = 42;
    shows = 200;
    movie_frac = 0.67;
    aka_avg = 0.4;
    reviews_avg = 0.33;
    review_sources = [ ("nyt", 0.25); ("suntimes", 0.5); ("variety", 0.25) ];
    review_width = 80;
    episodes_avg = 9.;
    directors = 50;
    directed_avg = 4.;
    actors = 150;
    played_avg = 4.;
    award_frac = 0.3;
    biography_frac = 0.12;
    year_range = (1800, 2100);
  }

(* Appendix A proportions at full scale (34798 shows, 165786 actors,
   26251 directors); [scaled] shrinks these *)
let paper_scale =
  {
    default with
    shows = 34798;
    movie_frac = 0.67;
    aka_avg = 13641. /. 34798.;
    reviews_avg = 11250. /. 34798.;
    review_width = 800;
    episodes_avg = 31250. /. 11483.;
    directors = 26251;
    directed_avg = 105004. /. 26251.;
    actors = 165786;
    played_avg = 663144. /. 165786.;
    biography_frac = 20000. /. 165786.;
  }

let scaled f =
  let p = paper_scale in
  let s n = max 1 (int_of_float (float_of_int n *. f)) in
  { p with shows = s p.shows; directors = s p.directors; actors = s p.actors }

(* deterministic helpers *)

let word rng stem idx width =
  let base = Printf.sprintf "%s_%06d" stem idx in
  let pad = width - String.length base in
  if pad <= 0 then base
  else
    base
    ^ String.init pad (fun _ -> Char.chr (Char.code 'a' + Random.State.int rng 26))

let poissonish rng avg =
  (* cheap integer draw with the right mean: floor(avg) plus a
     Bernoulli on the fractional part, plus geometric-ish spread *)
  let base = int_of_float avg in
  let frac = avg -. float_of_int base in
  let extra = if Random.State.float rng 1. < frac then 1 else 0 in
  let spread =
    if base >= 2 && Random.State.bool rng then Random.State.int rng base else 0
  in
  max 0 (base + extra + spread - (if base >= 2 then base / 2 else 0))

let pick_source rng sources =
  let x = Random.State.float rng 1. in
  let rec go acc = function
    | [ (tag, _) ] -> tag
    | (tag, f) :: rest -> if x < acc +. f then tag else go (acc +. f) rest
    | [] -> "misc"
  in
  go 0. sources

let year rng (lo, hi) = lo + Random.State.int rng (max 1 (hi - lo))

let generate p =
  let rng = Random.State.make [| p.seed |] in
  let title i = word rng "title" i 20 in
  let person i = word rng "person" i 18 in
  let show i =
    let is_movie = Random.State.float rng 1. < p.movie_frac in
    let akas =
      List.init (poissonish rng p.aka_avg) (fun k ->
          Xml.leaf "aka" (word rng "aka" ((i * 7) + k) 20))
    in
    let reviews =
      List.init (poissonish rng p.reviews_avg) (fun k ->
          Xml.elem "reviews"
            [
              Xml.leaf
                (pick_source rng p.review_sources)
                (word rng "review" ((i * 11) + k) p.review_width);
            ])
    in
    let branch =
      if is_movie then
        [
          Xml.leaf "box_office"
            (string_of_int (10000 + Random.State.int rng 99990000));
          Xml.leaf "video_sales"
            (string_of_int (10000 + Random.State.int rng 99990000));
        ]
      else
        [
          Xml.leaf "seasons" (string_of_int (1 + Random.State.int rng 20));
          Xml.leaf "description" (word rng "description" i 60);
        ]
        @ List.init (poissonish rng p.episodes_avg) (fun k ->
              Xml.elem "episodes"
                [
                  Xml.leaf "name" (word rng "episode" ((i * 13) + k) 20);
                  Xml.leaf "guest_director"
                    (person (Random.State.int rng (max 1 p.directors)));
                ])
    in
    Xml.elem "show"
      ([
         Xml.leaf "title" (title i);
         Xml.leaf "year" (string_of_int (year rng p.year_range));
         Xml.leaf "type" (if is_movie then "Movie" else "TVseries");
       ]
      @ akas @ reviews @ branch)
  in
  let directed i k =
    Xml.elem "directed"
      ([
         Xml.leaf "title" (title (Random.State.int rng (max 1 p.shows)));
         Xml.leaf "year" (string_of_int (year rng p.year_range));
       ]
      @ (if Random.State.float rng 1. < 0.5 then
           [ Xml.leaf "info" (word rng "info" ((i * 3) + k) 40) ]
         else [])
      @
      if Random.State.float rng 1. < 0.5 then
        [ Xml.leaf "misc" (word rng "misc" ((i * 5) + k) 40) ]
      else [])
  in
  let director i =
    Xml.elem "director"
      (Xml.leaf "name" (person i)
      :: List.init (poissonish rng p.directed_avg) (directed i))
  in
  let played i k =
    let awards =
      if Random.State.float rng 1. < p.award_frac then
        [
          Xml.elem "award"
            [
              Xml.leaf "result"
                (if Random.State.bool rng then "won" else "nom");
              Xml.leaf "award_name" (word rng "award" (k mod 50) 12);
            ];
        ]
      else []
    in
    Xml.elem "played"
      ([
         Xml.leaf "title" (title (Random.State.int rng (max 1 p.shows)));
         Xml.leaf "year" (string_of_int (year rng p.year_range));
         Xml.leaf "character" (word rng "char" ((i * 17) + k) 16);
         Xml.leaf "order_of_appearance"
           (string_of_int (1 + Random.State.int rng 300));
       ]
      @ awards)
  in
  let actor i =
    (* overlap the name pools so some actors are also directors *)
    let name_idx =
      if i < p.directors / 2 then i else p.directors + i
    in
    let biography =
      if Random.State.float rng 1. < p.biography_frac then
        [
          Xml.elem "biography"
            [
              Xml.leaf "birthday"
                (Printf.sprintf "%04d-%02d-%02d"
                   (1900 + Random.State.int rng 100)
                   (1 + Random.State.int rng 12)
                   (1 + Random.State.int rng 28));
              Xml.leaf "text" (word rng "bio" i 30);
            ];
        ]
      else []
    in
    Xml.elem "actor"
      ((Xml.leaf "name" (person name_idx)
       :: List.init (poissonish rng p.played_avg) (played i))
      @ biography)
  in
  Xml.elem "imdb"
    (List.init p.shows show
    @ List.init p.directors director
    @ List.init p.actors actor)
