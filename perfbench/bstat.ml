(* Order statistics over float samples.  Every function sorts a copy
   of its input, so callers may pass samples in arrival order; input
   that is already sorted is used as it is, so a caller with millions
   of samples sorts them once with [sorted] and passes the result. *)

let is_sorted a =
  let rec ok i = i >= Array.length a || (a.(i - 1) <= a.(i) && ok (i + 1)) in
  ok 1

let sorted xs =
  if is_sorted xs then xs
  else begin
    let a = Array.copy xs in
    Array.sort Float.compare a;
    a
  end

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Bstat.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* the smallest value whose samples, with those of every smaller value,
   carry at least half the total weight *)
let weighted_median xs ~weights =
  let n = Array.length xs in
  if n = 0 || Array.length weights <> n then
    invalid_arg "Bstat.weighted_median: no samples or unmatched weights";
  let order = Array.init n Fun.id in
  Array.stable_sort (fun i j -> Float.compare xs.(i) xs.(j)) order;
  let half = Array.fold_left ( +. ) 0. weights /. 2. in
  if not (half > 0.) then invalid_arg "Bstat.weighted_median: no weight";
  let rec go k acc =
    let i = order.(k) in
    let acc = acc +. weights.(i) in
    if acc >= half || k = n - 1 then xs.(i) else go (k + 1) acc
  in
  go 0 0.

(* nearest rank: the smallest sample with at least [p]% of the samples
   at or below it *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Bstat.percentile: no samples"
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* the samples strictly above the [p]th percentile: the guide's "at
   least ten samples beyond it" condition for reporting that percentile *)
let beyond p xs =
  let v = percentile p xs in
  Array.fold_left (fun n x -> if x > v then n + 1 else n) 0 xs

(* first and third quartile by Python's statistics.quantiles(xs, n=4)
   (the default "exclusive" method), so a spread computed here matches
   one computed over the same values by that function *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then invalid_arg "Bstat.quartiles: need two samples";
  let m = n + 1 in
  let q i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 3)

(* interquartile range as a share of the median *)
let iqr_share xs =
  let q1, q3 = quartiles xs in
  (q3 -. q1) /. median xs

