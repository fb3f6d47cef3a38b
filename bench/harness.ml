(* The perf experiments' shared plumbing: wall-clock timing, rounds of
   interleaved closures, the order statistics the gates read (from
   perfbench's Bstat), and one writer for the BENCH_*.json records. *)

open Legodb
module Bstat = Perfbench.Bstat

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* [rounds n fs] runs every closure of [fs] once per round for [n]
   rounds and returns each closure's [n] samples in round order.  The
   closure that goes first moves one place each round (two closures
   swap), so no side always runs on the machine another left behind. *)
let rounds n fs =
  let fs = Array.of_list fs in
  let k = Array.length fs in
  let samples = Array.make k [] in
  for r = 0 to n - 1 do
    for i = 0 to k - 1 do
      let j = (r + i) mod k in
      samples.(j) <- fs.(j) () :: samples.(j)
    done
  done;
  Array.to_list (Array.map (fun l -> Array.of_list (List.rev l)) samples)

(* the sample whose [key] is the nearest-rank [p]th percentile of all
   the keys: [p = 0.] picks the best round, [p = 50.] the median one.
   It is a round, not an average, so whatever else that round measured
   can be reported with it. *)
let pick p key samples =
  let v = Bstat.percentile p (Array.map key samples) in
  List.find (fun s -> Float.equal (key s) v) (Array.to_list samples)

(* the one float format; JSON has no NaN or infinity *)
let num x = if Float.is_finite x then Printf.sprintf "%.6g" x else "null"

(* min, quartiles (first / median / third) and max of [xs] *)
let spread xs =
  let a = Bstat.sorted xs in
  let n = Array.length a in
  if n < 2 then num a.(0)
  else
    let q1, q3 = Bstat.quartiles a in
    Printf.sprintf "min %s, quartiles %s / %s / %s, max %s" (num a.(0))
      (num q1) (num (Bstat.median a)) (num q3) (num a.(n - 1))

type json =
  | Int of int
  | Num of float
  | Str of string
  | Bool of bool
  | Null
  | Ints of int list

(* a string's JSON body, per RFC 8259: the quote, the backslash and the
   control characters escaped; every other byte, UTF-8 included, as it
   is *)
let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | ('"' | '\\') as c ->
          Buffer.add_char b '\\';
          Buffer.add_char b c
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let value = function
  | Int i -> string_of_int i
  | Num x -> num x
  | Str s -> "\"" ^ escape s ^ "\""
  | Bool b -> string_of_bool b
  | Null -> "null"
  | Ints l -> "[" ^ String.concat ", " (List.map string_of_int l) ^ "]"

(* an array of objects, one per line *)
let render rows =
  let obj row =
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> value (Str k) ^ ": " ^ value v) row)
    ^ "}"
  in
  "[\n  " ^ String.concat ",\n  " (List.map obj rows) ^ "\n]\n"

(* where the numbers were taken: cores, compiler, parallel backend and
   the run's -j *)
let env ~jobs =
  [
    ("kind", Str "env");
    ("cores", Int (Par.default_jobs ()));
    ("ocaml", Str Sys.ocaml_version);
    ("backend", Str Par.backend);
    ("jobs", Int jobs);
  ]

(* print [rows] behind the env row, and outside --smoke write them to
   BENCH_<name>.json in the working directory *)
let record ~smoke ~jobs name rows =
  let text = render (env ~jobs :: rows) in
  print_newline ();
  print_string text;
  if not smoke then begin
    let file = "BENCH_" ^ name ^ ".json" in
    let oc = open_out file in
    output_string oc text;
    close_out oc;
    Printf.printf "[wrote %s]\n%!" file
  end
