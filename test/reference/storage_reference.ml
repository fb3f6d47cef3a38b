(* Frozen reference: the row store as it was before tables became sealed
   segments, kept verbatim apart from this comment and the [open]: one
   row vector per table, statistics recomputed by a full pass, and a
   [freeze] that deep-copies every row vector and index.  The
   differential suite in test/test_storage.ml holds {!Storage} to it
   (rows by position, scan order, lookups, every catalog statistic).
   Do not "improve" this file. *)
open Legodb_relational

type row = Rtype.value array

(* a minimal growable array *)
module Vec = struct
  type 'a t = { mutable data : 'a array; mutable len : int }

  let create () = { data = [||]; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let cap = max 16 (2 * Array.length v.data) in
      (* fill the spare slots with an element that is live anyway
         (data.(0), or x itself when it is about to become data.(0)):
         filling with [x] would keep every pushed row reachable from
         the [cap - len - 1] spare slots until they are overwritten — a
         space leak pinning dead rows for the lifetime of the vector *)
      let fill = if v.len = 0 then x else v.data.(0) in
      let data = Array.make cap fill in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let get v i =
    if i < 0 || i >= v.len then invalid_arg "Vec.get" else v.data.(i)

  let length v = v.len
  let capacity v = Array.length v.data

  (* exact-size copy: independent of the original and with no spare
     slots at all, which is what frozen snapshots want *)
  let copy v = { data = Array.sub v.data 0 v.len; len = v.len }

  let to_seq v =
    let rec go i () =
      if i >= v.len then Seq.Nil else Seq.Cons (v.data.(i), go (i + 1))
    in
    go 0
end

type table_data = {
  schema : Rschema.table;
  rows : row Vec.t;
  indexes : (string, (Rtype.value, int list) Hashtbl.t) Hashtbl.t;
  (* column name -> value -> row positions (most recent first);
     NULLs are never indexed: a NULL key matches nothing (SQL
     semantics), so indexing them would only let [lookup] find them *)
  positions : (string * int) list;  (* column name -> array position *)
}

type t = {
  cat : Rschema.t;
  tables : (string, table_data) Hashtbl.t;
  frozen : bool;
}

let catalog db = db.cat
let is_frozen db = db.frozen

let create (cat : Rschema.t) =
  let tables = Hashtbl.create 16 in
  List.iter
    (fun (tbl : Rschema.table) ->
      let indexes = Hashtbl.create 4 in
      List.iter
        (fun cname -> Hashtbl.replace indexes cname (Hashtbl.create 64))
        tbl.indexed;
      Hashtbl.replace tables tbl.tname
        {
          schema = tbl;
          rows = Vec.create ();
          indexes;
          positions =
            List.mapi (fun i (c : Rschema.column) -> (c.cname, i)) tbl.columns;
        })
    cat.tables;
  { cat; tables; frozen = false }

let table_data db name =
  match Hashtbl.find_opt db.tables name with
  | Some td -> td
  | None -> invalid_arg (Printf.sprintf "Storage: unknown table %s" name)

let column_position db ~table ~column =
  match List.assoc_opt column (table_data db table).positions with
  | Some i -> i
  | None -> raise Not_found

let insert db name row =
  if db.frozen then
    invalid_arg
      (Printf.sprintf "Storage.insert: %s is a frozen snapshot" name);
  let td = table_data db name in
  if Array.length row <> List.length td.schema.columns then
    invalid_arg
      (Printf.sprintf "Storage.insert: arity mismatch for table %s" name);
  let pos = Vec.length td.rows in
  Vec.push td.rows row;
  Hashtbl.iter
    (fun cname idx ->
      match List.assoc_opt cname td.positions with
      | Some i ->
          let v = row.(i) in
          if not (Rtype.is_null v) then begin
            let existing = Option.value ~default:[] (Hashtbl.find_opt idx v) in
            Hashtbl.replace idx v (pos :: existing)
          end
      | None -> ())
    td.indexes

let row_count db name = Vec.length (table_data db name).rows
let scan db name = Vec.to_seq (table_data db name).rows
let get db name i = Vec.get (table_data db name).rows i

(* staged: applied to [db ~table ~column] it resolves the table and its
   index (or the scan column) once, and returns the probe *)
let lookup db ~table ~column =
  let td = table_data db table in
  (* SQL equality: NULL matches nothing.  The index compares keys
     structurally (V_null = V_null) and the scan fallback used
     value_equal, so both paths would otherwise return NULL-keyed rows
     the executor's joins reject through eval_cmp. *)
  match Hashtbl.find_opt td.indexes column with
  | Some idx ->
      fun value ->
        if Rtype.is_null value then []
        else
          (match Hashtbl.find_opt idx value with
          | Some positions -> List.rev_map (Vec.get td.rows) positions
          | None -> [])
  | None -> (
      match List.assoc_opt column td.positions with
      | Some i ->
          fun value ->
            if Rtype.is_null value then []
            else
              Seq.fold_left
                (fun acc row ->
                  if Rtype.value_equal row.(i) value then row :: acc else acc)
                [] (Vec.to_seq td.rows)
              |> List.rev
      | None -> invalid_arg "Storage.lookup: unknown column")

let total_rows db =
  Hashtbl.fold (fun _ td n -> n + Vec.length td.rows) db.tables 0

let refresh_table_stats db (tbl : Rschema.table) =
  let td = table_data db tbl.tname in
  let card = float_of_int (Vec.length td.rows) in
  let columns =
    List.mapi
      (fun i (c : Rschema.column) ->
        let distinct_tbl = Hashtbl.create 64 in
        let nulls = ref 0 in
        let widths = ref 0. in
        let vmin = ref None and vmax = ref None in
        Seq.iter
          (fun (row : row) ->
            let v = row.(i) in
            widths := !widths +. float_of_int (Rtype.value_width v);
            match v with
            | Rtype.V_null -> incr nulls
            | Rtype.V_int n ->
                Hashtbl.replace distinct_tbl v ();
                vmin := Some (match !vmin with None -> n | Some m -> min m n);
                vmax := Some (match !vmax with None -> n | Some m -> max m n)
            | Rtype.V_string _ -> Hashtbl.replace distinct_tbl v ())
          (Vec.to_seq td.rows);
        let n = Vec.length td.rows in
        let stats =
          {
            Rschema.distinct = float_of_int (Hashtbl.length distinct_tbl);
            null_frac = (if n = 0 then 0. else float_of_int !nulls /. float_of_int n);
            v_min = !vmin;
            v_max = !vmax;
            avg_width =
              (if n = 0 then float_of_int (Rtype.width c.ctype)
               else !widths /. float_of_int n);
          }
        in
        { c with Rschema.stats })
      tbl.columns
  in
  { tbl with Rschema.columns; card }

(* an independent copy of one table's data: fresh row vector (trimmed,
   so a snapshot pins no spare slots), fresh outer and inner index
   hashtables.  The int lists and the rows themselves are immutable
   from Storage's point of view and are shared. *)
let copy_table_data td schema =
  let indexes = Hashtbl.create (max 4 (Hashtbl.length td.indexes)) in
  Hashtbl.iter
    (fun cname idx -> Hashtbl.replace indexes cname (Hashtbl.copy idx))
    td.indexes;
  { schema; rows = Vec.copy td.rows; indexes; positions = td.positions }

let with_refreshed_catalog db ~frozen =
  let cat =
    { Rschema.tables = List.map (refresh_table_stats db) db.cat.tables }
  in
  let tables = Hashtbl.create (Hashtbl.length db.tables) in
  List.iter
    (fun (tbl : Rschema.table) ->
      match Hashtbl.find_opt db.tables tbl.tname with
      | Some td -> Hashtbl.replace tables tbl.tname (copy_table_data td tbl)
      | None -> ())
    cat.tables;
  { cat; tables; frozen }

let refresh_stats db = with_refreshed_catalog db ~frozen:db.frozen
let freeze db = with_refreshed_catalog db ~frozen:true

(* ------------------------------------------------------------------ *)
(* durable row dump (the payload layer of snapshots and WAL records)   *)
(* ------------------------------------------------------------------ *)

module Wire = Legodb_wire.Wire

let write_value b = function
  | Rtype.V_null -> Wire.w_line b "n"
  | Rtype.V_int n ->
      Wire.w_line b "i";
      Wire.w_int b n
  | Rtype.V_string s ->
      Wire.w_line b "s";
      Wire.w_str b s

let read_value cur =
  match Wire.r_line cur with
  | "n" -> Rtype.V_null
  | "i" -> Rtype.V_int (Wire.r_int cur)
  | "s" -> Rtype.V_string (Wire.r_str cur)
  | s -> Wire.corrupt "malformed payload: unknown value tag %S" s

let write_row b (row : row) =
  Array.iter (write_value b) row

let read_row cur ~arity : row = Array.init arity (fun _ -> read_value cur)

(* tables in catalog order, each as name / arity / row count / rows, so
   a dump of a store is deterministic and a reload into a fresh store
   for the same catalog reproduces it row for row (ids, order, and
   index contents included — insert rebuilds the indexes) *)
let write_rows b db =
  Wire.w_int b (List.length db.cat.tables);
  List.iter
    (fun (tbl : Rschema.table) ->
      let td = table_data db tbl.tname in
      let arity = List.length tbl.columns in
      Wire.w_str b tbl.tname;
      Wire.w_int b arity;
      Wire.w_int b (Vec.length td.rows);
      Seq.iter (write_row b) (Vec.to_seq td.rows))
    db.cat.tables

let read_rows cur db =
  let n = Wire.r_int cur in
  if n <> List.length db.cat.tables then
    Wire.corrupt
      "malformed payload: dump has %d tables, the catalog declares %d" n
      (List.length db.cat.tables);
  List.iter
    (fun (tbl : Rschema.table) ->
      let tname = Wire.r_str cur in
      if not (String.equal tname tbl.tname) then
        Wire.corrupt "malformed payload: dump table %S where catalog expects %S"
          tname tbl.tname;
      let arity = Wire.r_int cur in
      if arity <> List.length tbl.columns then
        Wire.corrupt
          "malformed payload: table %s has arity %d in the dump, %d in the \
           catalog"
          tname arity
          (List.length tbl.columns);
      let rows = Wire.r_int cur in
      if rows < 0 then
        Wire.corrupt "malformed payload: negative row count %d" rows;
      for _ = 1 to rows do
        insert db tname (read_row cur ~arity)
      done)
    db.cat.tables

let pp_summary fmt db =
  List.iter
    (fun (tbl : Rschema.table) ->
      Format.fprintf fmt "%-24s %8d rows@." tbl.tname (row_count db tbl.tname))
    db.cat.tables
