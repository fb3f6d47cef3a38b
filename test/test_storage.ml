(* The segmented row store against the one it replaced
   (test/reference/storage_reference.ml: one row vector per table,
   statistics recomputed by a full pass, a deep-copying freeze).  Over
   random sequences of inserts, document-sized batches, seals and
   freezes, the two must hold the same rows at the
   same positions, scan them in the same order, answer every lookup
   with the same rows in the same order — probes staged on a working
   store included, across the seals that follow — and a frozen
   catalog's every statistic must equal the reference's full pass bit
   for bit.  Where they are meant to differ, the store refuses what the
   catalog forbids (a NULL in a NOT NULL column, a duplicate key, a
   batch whose foreign key names no row) and the reference is then not
   given the rows at all.  Every frozen snapshot is also written out
   segment by segment, as a durable publish writes it, and as one
   whole-store image, and reloaded as a recovery would. *)

open Legodb
open Test_util

let col ?(nullable = false) name ctype =
  {
    Rschema.cname = name;
    ctype;
    nullable;
    stats =
      {
        Rschema.distinct = 1.;
        null_frac = 0.;
        v_min = None;
        v_max = None;
        avg_width = 4.;
      };
  }

let parent =
  {
    Rschema.tname = "P";
    key = "P_id";
    columns =
      [
        col "P_id" Rtype.R_int;
        col "name" (Rtype.R_string None) ~nullable:true;
        col "n" Rtype.R_int;
      ];
    fks = [];
    indexed = [ "P_id"; "name" ];
    card = 1.;
  }

let child =
  {
    Rschema.tname = "C";
    key = "C_id";
    columns =
      [
        col "C_id" Rtype.R_int;
        col "tag" (Rtype.R_string (Some 4)) ~nullable:true;
        col "v" Rtype.R_int ~nullable:true;
        col "parent_P" Rtype.R_int ~nullable:true;
      ];
    fks = [ ("parent_P", "P") ];
    indexed = [ "C_id"; "parent_P" ];
    card = 1.;
  }

let catalog = { Rschema.tables = [ parent; child ] }

(* ------------------------------------------------------------------ *)
(* operations                                                          *)
(* ------------------------------------------------------------------ *)

type value_draw = Null | Int of int | Str of string

type op =
  | Insert of string * int option * value_draw list
      (* table, key (None: the next fresh one), the other columns *)
  | Batch of (int option * value_draw list) list * (int option * value_draw list) list
      (* children then parents, as a loader inserts them *)
  | Seal
  | Freeze

let gen_draw =
  QCheck2.Gen.(
    frequency
      [
        (1, return Null);
        (3, map (fun n -> Int n) (int_range (-3) 4));
        (3, map (fun s -> Str s) (oneofl [ "a"; "b"; "c"; "dd"; "" ]));
      ])

let gen_key = QCheck2.Gen.(frequency [ (6, return None); (1, map Option.some (int_range 0 12)) ])

let gen_row arity = QCheck2.Gen.(pair gen_key (list_repeat arity gen_draw))

let gen_op =
  QCheck2.Gen.(
    frequency
      [
        (6, map (fun (k, vs) -> Insert ("P", k, vs)) (gen_row 2));
        (6, map (fun (k, vs) -> Insert ("C", k, vs)) (gen_row 3));
        ( 3,
          map2
            (fun cs ps -> Batch (cs, ps))
            (list_size (int_range 0 4) (gen_row 3))
            (list_size (int_range 0 2) (gen_row 2)) );
        (2, return Seal);
        (2, return Freeze);
      ])

let print_op = function
  | Insert (t, _, _) -> "insert " ^ t
  | Batch (cs, ps) -> Printf.sprintf "batch %d+%d" (List.length cs) (List.length ps)
  | Seal -> "seal"
  | Freeze -> "freeze"

(* ------------------------------------------------------------------ *)
(* the two stores, side by side                                        *)
(* ------------------------------------------------------------------ *)

type pair = { now : Storage.t; old : Storage_reference.t }

(* a column's value from a draw, typed by the column: a string draw in
   an integer column takes its length, and the other way round *)
let value (c : Rschema.column) = function
  | Null -> Rtype.V_null
  | Int n -> (
      match c.ctype with
      | Rtype.R_int -> Rtype.V_int n
      | Rtype.R_string _ -> Rtype.V_string (string_of_int n))
  | Str s -> (
      match c.ctype with
      | Rtype.R_int -> Rtype.V_int (String.length s)
      | Rtype.R_string _ -> Rtype.V_string s)

(* ids: a fresh key is one past the largest id either side has seen *)
let next_id = ref 0

let make_row (t : Rschema.table) (key, draws) =
  let id =
    match key with
    | Some k -> k
    | None ->
        incr next_id;
        !next_id + 100
  in
  Array.of_list
    (Rtype.V_int id
    :: List.map2 value (List.tl t.columns) draws)

let ref_has_key old tname v =
  Storage_reference.lookup old ~table:tname
    ~column:(Rschema.table catalog tname).key v
  <> []

(* would the catalog let [row] into [old] (plus the rows [pending]
   ahead of it in the same batch)? *)
let row_ok old (t : Rschema.table) ~keys row =
  List.for_all2
    (fun (c : Rschema.column) v -> c.nullable || not (Rtype.is_null v))
    t.columns (Array.to_list row)
  && not (ref_has_key old t.tname row.(0) || List.mem (t.tname, row.(0)) keys)

let apply (st : pair) op =
  match op with
  | Insert (tname, key, draws) ->
      let t = Rschema.table catalog tname in
      let row = make_row t (key, draws) in
      let ok = row_ok st.old t ~keys:[] row in
      (match Storage.insert st.now tname row with
      | () -> check_bool "accepted as the catalog allows" true ok
      | exception Storage.Violation _ ->
          check_bool "refused as the catalog forbids" false ok);
      if ok then Storage_reference.insert st.old tname row
  | Batch (cs, ps) ->
      let parents = List.map (make_row parent) ps in
      let children =
        List.map
          (fun (k, draws) ->
            let row = make_row child (k, draws) in
            (* most children name a parent of this batch *)
            (match (parents, row.(3)) with
            | p :: _, Rtype.V_int n when n >= 0 -> row.(3) <- p.(0)
            | _ -> ());
            row)
          cs
      in
      let rows =
        List.map (fun r -> ("C", r)) children @ List.map (fun r -> ("P", r)) parents
      in
      let ok, _ =
        List.fold_left
          (fun (ok, keys) (tname, row) ->
            ( ok && row_ok st.old (Rschema.table catalog tname) ~keys row,
              (tname, row.(0)) :: keys ))
          (true, []) rows
      in
      let ok =
        ok
        && List.for_all
             (fun (c : Storage.row) ->
               Rtype.is_null c.(3)
               || ref_has_key st.old "P" c.(3)
               || List.exists (fun (p : Storage.row) -> p.(0) = c.(3)) parents)
             children
      in
      let before = Storage.total_rows st.now in
      (match
         Storage.atomically st.now (fun () ->
             List.iter (fun (tname, row) -> Storage.insert st.now tname row) rows)
       with
      | () -> check_bool "batch accepted as the catalog allows" true ok
      | exception Storage.Violation _ ->
          check_bool "batch refused as the catalog forbids" false ok;
          check_int "a refused batch leaves nothing" before
            (Storage.total_rows st.now));
      if ok then
        List.iter (fun (tname, row) -> Storage_reference.insert st.old tname row) rows
  | Seal -> Storage.seal st.now
  | Freeze -> ()

(* every value a probe can ask for: the draws' domain, both kinds *)
let probe_values =
  Rtype.V_null
  :: List.map (fun n -> Rtype.V_int n) (List.init 16 (fun i -> i - 3) @ [ 101; 102; 103; 104; 105 ])
  @ List.map (fun s -> Rtype.V_string s) [ "a"; "b"; "c"; "dd"; ""; "1"; "-3" ]

let columns = List.concat_map (fun (t : Rschema.table) ->
  List.map (fun (c : Rschema.column) -> (t.tname, c.cname)) t.columns) catalog.tables

(* the same rows, at the same positions, in the same scan and lookup
   order; [staged] are probes staged on [now] earlier *)
let same_rows ?(staged = []) now old =
  List.iter
    (fun (t : Rschema.table) ->
      let n = Storage.row_count now t.tname in
      check_int (t.tname ^ " rows") (Storage_reference.row_count old t.tname) n;
      for i = 0 to n - 1 do
        check_bool (t.tname ^ " row at position") true
          (Storage.get now t.tname i = Storage_reference.get old t.tname i)
      done;
      check_bool (t.tname ^ " scan order") true
        (List.of_seq (Storage.scan now t.tname)
        = List.of_seq (Storage_reference.scan old t.tname)))
    catalog.tables;
  check_int "total rows" (Storage_reference.total_rows old) (Storage.total_rows now);
  List.iter
    (fun (table, column) ->
      let probe = Storage.lookup now ~table ~column in
      let refp = Storage_reference.lookup old ~table ~column in
      List.iter
        (fun v ->
          check_bool (Printf.sprintf "lookup %s.%s" table column) true (probe v = refp v))
        probe_values)
    columns;
  List.iter
    (fun ((table, column), probe) ->
      let refp = Storage_reference.lookup old ~table ~column in
      List.iter
        (fun v ->
          check_bool (Printf.sprintf "staged lookup %s.%s" table column) true
            (probe v = refp v))
        probe_values)
    staged

let same_float what a b = check_bool what true (Float.equal a b)

let same_catalog (now : Rschema.t) (old : Rschema.t) =
  List.iter2
    (fun (a : Rschema.table) (b : Rschema.table) ->
      same_float (a.tname ^ " card") a.card b.card;
      List.iter2
        (fun (c : Rschema.column) (d : Rschema.column) ->
          let what = a.tname ^ "." ^ c.cname in
          same_float (what ^ " distinct") c.stats.distinct d.stats.distinct;
          same_float (what ^ " null_frac") c.stats.null_frac d.stats.null_frac;
          same_float (what ^ " avg_width") c.stats.avg_width d.stats.avg_width;
          check_bool (what ^ " v_min") true (c.stats.v_min = d.stats.v_min);
          check_bool (what ^ " v_max") true (c.stats.v_max = d.stats.v_max))
        a.columns b.columns)
    now.tables old.tables

(* a frozen snapshot written out as a durable publish writes it (one
   image per sealed segment) and as one image of the whole store
   ([Wal.write_snapshot]'s payload), then reloaded the way recovery
   reads them *)
let reloads frozen old =
  let image write =
    let b = Buffer.create 256 in
    write b;
    Buffer.contents b
  in
  let load images =
    let db = Storage.create catalog in
    List.iter
      (fun img ->
        Storage.read_rows (Wire.cursor img) db;
        Storage.seal db)
      images;
    Storage.freeze db
  in
  let segments =
    List.map
      (fun s -> image (fun b -> Storage.write_segment b frozen s))
      (Storage.segments frozen)
  in
  let whole = image (fun b -> Storage.write_rows b frozen) in
  List.iter
    (fun reloaded ->
      same_rows reloaded old;
      same_catalog (Storage.catalog reloaded) (Storage_reference.catalog old))
    [ load segments; load [ whole ] ]

let check_frozen st =
  let frozen = Storage.freeze st.now and old = Storage_reference.freeze st.old in
  same_rows frozen old;
  same_catalog (Storage.catalog frozen) (Storage_reference.catalog old);
  reloads frozen old

let stage now =
  List.filter_map
    (fun (table, column) ->
      if Rschema.has_index (Rschema.table catalog table) column || column = "tag"
      then Some ((table, column), Storage.lookup now ~table ~column)
      else None)
    columns

let run ops =
  next_id := 0;
  let st =
    { now = Storage.create catalog; old = Storage_reference.create catalog }
  in
  let staged = stage st.now in
  List.iter
    (fun op ->
      apply st op;
      if op = Freeze then check_frozen st;
      same_rows ~staged st.now st.old)
    ops;
  check_frozen st;
  true

let prop_differential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:120
       ~name:"segmented store equals the single-vector reference"
       ~print:(fun ops -> String.concat "; " (List.map print_op ops))
       QCheck2.Gen.(list_size (int_range 0 40) gen_op)
       run)

(* the merge rule keeps segments halving from oldest to newest *)
let merge_rule () =
  let db = Storage.create catalog in
  let sizes () = List.map Storage.segment_rows (Storage.segments db) in
  next_id := 0;
  for round = 1 to 40 do
    for _ = 1 to 1 + (round mod 7) do
      Storage.insert db "P" (make_row parent (None, [ Null; Int round ]))
    done;
    Storage.seal db;
    let rec halving = function
      | a :: (b :: _ as rest) -> a > 2 * b && halving rest
      | _ -> true
    in
    check_bool
      (Printf.sprintf "round %d: %s" round
         (String.concat " " (List.map string_of_int (sizes ()))))
      true (halving (sizes ()))
  done;
  check_int "every row sealed" (Storage.total_rows db)
    (List.fold_left ( + ) 0 (sizes ()))

let suite =
  [
    prop_differential;
    case "the merge rule halves segments from oldest to newest" merge_rule;
  ]
