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

  (* drop everything from position [n] on; the freed slots take the
     live element 0, as spare capacity always does *)
  let truncate v n =
    if n = 0 then v.data <- [||]
    else Array.fill v.data n (v.len - n) v.data.(0);
    v.len <- n

  let clear v = truncate v 0
end

exception Violation of string

let violation fmt = Printf.ksprintf (fun m -> raise (Violation m)) fmt

(* Stored values are hashed and compared by kind: the same equivalence
   as structural equality, without the polymorphic hash and compare on
   every probe. *)
let equal_value a b =
  match (a, b) with
  | Rtype.V_int m, Rtype.V_int n -> Int.equal m n
  | Rtype.V_string s, Rtype.V_string t -> String.equal s t
  | Rtype.V_null, Rtype.V_null -> true
  | _ -> false

let hash_value = function
  | Rtype.V_int n -> Hashtbl.hash n
  | Rtype.V_string s -> Hashtbl.hash s
  | Rtype.V_null -> 0

module Values = Hashtbl.Make (struct
  type t = Rtype.value

  let equal = equal_value
  let hash = hash_value
end)

(* An index: stored value -> the table positions holding it, most
   recent first (never empty).  A chained table whose operations take
   the key's hash from the caller, so a probe of a store with several
   segments hashes its key once for all of them.  NULLs are never
   indexed: a NULL key matches nothing (SQL semantics), so indexing
   them would only let [lookup] find them. *)
module Index = struct
  type chain =
    | Nil
    | Cell of { key : Rtype.value; mutable ps : int list; mutable next : chain }

  type t = { mutable data : chain array; mutable size : int }

  let create () = { data = Array.make 16 Nil; size = 0 }
  let slot t h = h land (Array.length t.data - 1)

  let rec assoc key = function
    | Nil -> Nil
    | Cell c as cell -> if equal_value c.key key then cell else assoc key c.next

  (* [key]'s positions ([h] its hash), [] when it is absent *)
  let find t h key =
    match assoc key t.data.(slot t h) with Cell c -> c.ps | Nil -> []

  let resize t =
    let old = t.data in
    t.data <- Array.make (2 * Array.length old) Nil;
    Array.iter
      (fun chain ->
        let rec move = function
          | Nil -> ()
          | Cell c as cell ->
              let next = c.next in
              let i = slot t (hash_value c.key) in
              c.next <- t.data.(i);
              t.data.(i) <- cell;
              move next
        in
        move chain)
      old

  let add_new t h key ps =
    let i = slot t h in
    t.data.(i) <- Cell { key; ps; next = t.data.(i) };
    t.size <- t.size + 1;
    if t.size > 2 * Array.length t.data then resize t

  (* [p] becomes [key]'s most recent position; whether [key] is new *)
  let push t h key p =
    match assoc key t.data.(slot t h) with
    | Cell c ->
        c.ps <- p :: c.ps;
        false
    | Nil ->
        add_new t h key [ p ];
        true

  (* take back [key]'s most recent position, which is [p]; whether
     [key] is gone *)
  let pop t h key p =
    let i = slot t h in
    let rec go prev = function
      | Cell c as cell when not (equal_value c.key key) -> go cell c.next
      | Cell ({ ps = q :: rest; _ } as c) when q = p ->
          if rest <> [] then begin
            c.ps <- rest;
            false
          end
          else begin
            (match prev with
            | Nil -> t.data.(i) <- c.next
            | Cell pc -> pc.next <- c.next);
            t.size <- t.size - 1;
            true
          end
      | _ -> invalid_arg "Storage: an index out of step with its rows"
    in
    go Nil t.data.(i)

  let iter f t =
    Array.iter
      (fun chain ->
        let rec go = function
          | Nil -> ()
          | Cell c ->
              f c.key c.ps;
              go c.next
        in
        go chain)
      t.data

  (* a fresh index holding [a]'s entries and, in front of them, [b]'s
     positions, which are all larger *)
  let merge a b =
    let t = { data = Array.make (Array.length a.data) Nil; size = 0 } in
    iter (fun key ps -> add_new t (hash_value key) key ps) a;
    iter
      (fun key ps ->
        let h = hash_value key in
        match assoc key t.data.(slot t h) with
        | Cell c -> c.ps <- ps @ c.ps
        | Nil -> add_new t h key ps)
      b;
    t
end

type index = Index.t

(* One table's rows in a sealed segment: immutable once built, so any
   number of stores (the working store and every snapshot frozen from
   it) share it. *)
type part = {
  rows : row array;
  base : int;  (* the table position of rows.(0) *)
  idx : index array;  (* one per index slot (see [islot]) *)
}

(* The rows one publish sealed, across all tables (catalog order), or
   the merge of adjacent such runs. *)
type segment = { parts : part array; seg_rows : int }

(* One column's statistics, kept exactly at insert (working stores
   only): what a full pass over the rows would count. *)
type col_acc = {
  mutable nulls : int;
  mutable widths : int;
  (* integer sums are exact, so the float average is bit-identical to
     one summed in floats while the total stays below 2^53 *)
  mutable has_int : bool;
  mutable vmin : int;
  mutable vmax : int;
  counts : int ref Values.t;
      (* occurrences of each non-NULL value; empty for an indexed
         column, whose index already knows its values *)
  mutable idistinct : int;  (* an indexed column's distinct values *)
}

type table_data = {
  schema : Rschema.table;
  positions : (string * int) list;  (* column name -> array position *)
  arity : int;
  islot : int array;
      (* column position -> its index slot, or -1; the key's is slot 0 *)
  notnull : int array;
  key_pos : int;
  mutable fks : (int * table_data) list;  (* fk position, parent *)
  mutable segs : part array;  (* non-empty sealed parts, oldest first *)
  tail : row Vec.t;  (* rows inserted since the last seal *)
  tail_idx : index array;
  mutable count : int;  (* rows in [segs] and [tail] *)
  accs : col_acc array;  (* per column; [||] in a frozen store *)
}

type t = {
  cat : Rschema.t;
  tables : (string, table_data) Hashtbl.t;
  order : table_data array;  (* catalog order *)
  frozen : bool;
  mutable sealed : segment list;  (* newest first *)
}

let catalog db = db.cat
let is_frozen db = db.frozen

let new_acc () =
  {
    nulls = 0;
    widths = 0;
    has_int = false;
    vmin = 0;
    vmax = 0;
    counts = Values.create 64;
    idistinct = 0;
  }

let fresh_indexes n = Array.init n (fun _ -> Index.create ())

let create (cat : Rschema.t) =
  let order =
    List.map
      (fun (tbl : Rschema.table) ->
        let names = List.map (fun (c : Rschema.column) -> c.cname) tbl.columns in
        let position name =
          let rec go i = function
            | [] -> None
            | n :: _ when String.equal n name -> Some i
            | _ :: rest -> go (i + 1) rest
          in
          go 0 names
        in
        let arity = List.length names in
        (* the key always has an index: it is how duplicates are refused *)
        let inames =
          List.fold_left
            (fun acc c ->
              if List.mem c acc || position c = None then acc else acc @ [ c ])
            [] (tbl.key :: tbl.indexed)
          |> Array.of_list
        in
        let icols = Array.map (fun c -> Option.get (position c)) inames in
        let islot = Array.make arity (-1) in
        Array.iteri (fun j i -> islot.(i) <- j) icols;
        {
          schema = tbl;
          positions = List.mapi (fun i n -> (n, i)) names;
          arity;
          islot;
          notnull =
            List.concat
              (List.mapi
                 (fun i (c : Rschema.column) -> if c.nullable then [] else [ i ])
                 tbl.columns)
            |> Array.of_list;
          key_pos = (match position tbl.key with Some i -> i | None -> -1);
          fks = [];
          segs = [||];
          tail = Vec.create ();
          tail_idx = fresh_indexes (Array.length icols);
          count = 0;
          accs = Array.init arity (fun _ -> new_acc ());
        })
      cat.tables
    |> Array.of_list
  in
  let tables = Hashtbl.create 16 in
  Array.iter (fun td -> Hashtbl.replace tables td.schema.tname td) order;
  Array.iter
    (fun td ->
      td.fks <-
        List.filter_map
          (fun (col, parent) ->
            match
              (List.assoc_opt col td.positions, Hashtbl.find_opt tables parent)
            with
            | Some pos, Some p when p.key_pos >= 0 -> Some (pos, p)
            | _ -> None)
          td.schema.fks)
    order;
  { cat; tables; order; frozen = false; sealed = [] }

let table_data db name =
  match Hashtbl.find_opt db.tables name with
  | Some td -> td
  | None -> invalid_arg (Printf.sprintf "Storage: unknown table %s" name)

let column_position db ~table ~column =
  match List.assoc_opt column (table_data db table).positions with
  | Some i -> i
  | None -> raise Not_found

(* ------------------------------------------------------------------ *)
(* reading across segments                                             *)
(* ------------------------------------------------------------------ *)

let tail_base td = td.count - td.tail.Vec.len

(* [v], whose hash is [h], is in index slot [j] of a sealed part *)
let in_segs td j h v = Array.exists (fun p -> Index.find p.idx.(j) h v <> []) td.segs

let mem td j v =
  let h = hash_value v in
  Index.find td.tail_idx.(j) h v <> [] || in_segs td j h v

(* the rows holding [v] in index slot [j], in table order: each part's
   positions are most recent first, so prepending them newest part
   first leaves the oldest row at the head *)
let probe_parts segs j h v acc =
  let acc = ref acc in
  for s = Array.length segs - 1 downto 0 do
    let p = segs.(s) in
    acc :=
      List.fold_left
        (fun acc i -> p.rows.(i - p.base) :: acc)
        !acc
        (Index.find p.idx.(j) h v)
  done;
  !acc

let probe_tail td j h v =
  let base = tail_base td in
  List.fold_left
    (fun acc i -> td.tail.Vec.data.(i - base) :: acc)
    []
    (Index.find td.tail_idx.(j) h v)

let row_count db name = (table_data db name).count

(* [rows] from position [i] on, then [rest] *)
let rec rows_from rows i rest () =
  if i >= Array.length rows then rest ()
  else Seq.Cons (rows.(i), rows_from rows (i + 1) rest)

let scan db name =
  let td = table_data db name in
  let parts segs tail =
    Array.fold_right (fun p rest -> rows_from p.rows 0 rest) segs tail
  in
  if db.frozen then parts td.segs Seq.empty
  else
    let rec tail i () =
      if i >= td.tail.Vec.len then Seq.Nil
      else Seq.Cons (td.tail.Vec.data.(i), tail (i + 1))
    in
    (* the parts are read when the sequence is, so later inserts (and
       seals) into a working store stay visible to a held scan *)
    fun () -> parts td.segs (tail 0) ()

let get db name i =
  let td = table_data db name in
  if i < 0 || i >= td.count then invalid_arg "Vec.get";
  let tb = tail_base td in
  if i >= tb then td.tail.Vec.data.(i - tb)
  else
    let rec find s =
      let p = td.segs.(s) in
      if i >= p.base then p.rows.(i - p.base) else find (s - 1)
    in
    find (Array.length td.segs - 1)

(* staged: applied to [db ~table ~column] it resolves the table and its
   index (or the scan column) once, and returns the probe *)
let lookup db ~table ~column =
  let td = table_data db table in
  (* SQL equality: NULL matches nothing.  The index compares keys
     structurally (V_null = V_null) and the scan fallback used
     value_equal, so both paths would otherwise return NULL-keyed rows
     the executor's joins reject through eval_cmp. *)
  match List.assoc_opt column td.positions with
  | None -> invalid_arg "Storage.lookup: unknown column"
  | Some i when td.islot.(i) >= 0 ->
      let j = td.islot.(i) in
      if db.frozen then
        (* nothing in a frozen store ever changes *)
        match td.segs with
        | [| p |] ->
            let idx = p.idx.(j) in
            fun value ->
              if Rtype.is_null value then []
              else
                List.fold_left
                  (fun acc i -> p.rows.(i - p.base) :: acc)
                  []
                  (Index.find idx (hash_value value) value)
        | segs ->
            fun value ->
              if Rtype.is_null value then []
              else probe_parts segs j (hash_value value) value []
      else fun value ->
        if Rtype.is_null value then []
        else
          let h = hash_value value in
          probe_parts td.segs j h value (probe_tail td j h value)
  | Some i ->
      let rows = scan db table in
      fun value ->
        if Rtype.is_null value then []
        else
          Seq.fold_left
            (fun acc row ->
              if Rtype.value_equal row.(i) value then row :: acc else acc)
            [] rows
          |> List.rev

let total_rows db = Array.fold_left (fun n td -> n + td.count) 0 db.order

(* ------------------------------------------------------------------ *)
(* inserting, with the declared constraints                            *)
(* ------------------------------------------------------------------ *)

(* raises [Violation] unless [row] may go in; returns its key's hash *)
let check_row td (row : row) =
  Array.iter
    (fun i ->
      if Rtype.is_null row.(i) then
        violation "%s: NULL in NOT NULL column %s" td.schema.tname
          (List.nth td.schema.columns i).Rschema.cname)
    td.notnull;
  if td.key_pos < 0 then 0
  else
    let k = row.(td.key_pos) in
    let h = hash_value k in
    if
      (not (Rtype.is_null k))
      && (Index.find td.tail_idx.(0) h k <> [] || in_segs td 0 h k)
    then
      violation "%s: duplicate key %s = %s" td.schema.tname td.schema.key
        (Format.asprintf "%a" Rtype.pp_value k);
    h

let count_value a v =
  match Values.find_opt a.counts v with
  | Some r -> incr r
  | None -> Values.add a.counts v (ref 1)

(* [row] appended to the tail, its key (hash [kh]) known to be new *)
let push td (row : row) kh =
  let pos = td.count in
  Vec.push td.tail row;
  td.count <- pos + 1;
  for i = 0 to td.arity - 1 do
    let v = row.(i) and a = td.accs.(i) in
    a.widths <- a.widths + Rtype.value_width v;
    let j = td.islot.(i) in
    match v with
    | Rtype.V_null -> a.nulls <- a.nulls + 1
    | _ ->
        (match v with
        | Rtype.V_int n ->
            if a.has_int then begin
              if n < a.vmin then a.vmin <- n;
              if n > a.vmax then a.vmax <- n
            end
            else begin
              a.has_int <- true;
              a.vmin <- n;
              a.vmax <- n
            end
        | _ -> ());
        if j < 0 then count_value a v
        else if i = td.key_pos then begin
          Index.add_new td.tail_idx.(j) kh v [ pos ];
          a.idistinct <- a.idistinct + 1
        end
        else
          let h = hash_value v in
          if Index.push td.tail_idx.(j) h v pos && not (in_segs td j h v) then
            a.idistinct <- a.idistinct + 1
  done

let insert db name row =
  if db.frozen then
    invalid_arg
      (Printf.sprintf "Storage.insert: %s is a frozen snapshot" name);
  let td = table_data db name in
  if Array.length row <> td.arity then
    invalid_arg
      (Printf.sprintf "Storage.insert: arity mismatch for table %s" name);
  push td row (check_row td row)

(* what [atomically] restores: each table's tail length and each
   column's scalar statistics *)
type mark = {
  lens : int array;
  scalars : (int * int * bool * int * int) array array;
}

let mark db =
  {
    lens = Array.map (fun td -> td.tail.Vec.len) db.order;
    scalars =
      Array.map
        (fun td ->
          Array.map (fun a -> (a.nulls, a.widths, a.has_int, a.vmin, a.vmax)) td.accs)
        db.order;
  }

let rollback db m =
  Array.iteri
    (fun t td ->
      let keep = m.lens.(t) in
      for p = td.tail.Vec.len - 1 downto keep do
        let row = td.tail.Vec.data.(p) in
        let pos = td.count - 1 in
        for i = 0 to td.arity - 1 do
          let v = row.(i) and a = td.accs.(i) and j = td.islot.(i) in
          if not (Rtype.is_null v) then
            if j < 0 then begin
              let r = Values.find a.counts v in
              decr r;
              if !r = 0 then Values.remove a.counts v
            end
            else
              let h = hash_value v in
              if Index.pop td.tail_idx.(j) h v pos && not (in_segs td j h v) then
                a.idistinct <- a.idistinct - 1
        done;
        td.count <- pos
      done;
      Vec.truncate td.tail keep;
      Array.iteri
        (fun i (nulls, widths, has_int, vmin, vmax) ->
          let a = td.accs.(i) in
          a.nulls <- nulls;
          a.widths <- widths;
          a.has_int <- has_int;
          a.vmin <- vmin;
          a.vmax <- vmax)
        m.scalars.(t))
    db.order

(* every foreign key of the rows added since [m] names a stored row *)
let check_fks db m =
  Array.iteri
    (fun t td ->
      for p = m.lens.(t) to td.tail.Vec.len - 1 do
        let row = td.tail.Vec.data.(p) in
        List.iter
          (fun (pos, parent) ->
            let v = row.(pos) in
            if (not (Rtype.is_null v)) && not (mem parent 0 v) then
              violation "%s: foreign key %s = %s names no %s row"
                td.schema.tname
                (List.nth td.schema.columns pos).Rschema.cname
                (Format.asprintf "%a" Rtype.pp_value v)
                parent.schema.tname)
          td.fks
      done)
    db.order

let atomically db f =
  if db.frozen then invalid_arg "Storage.atomically: a frozen snapshot";
  let m = mark db in
  match
    let r = f () in
    check_fks db m;
    r
  with
  | r -> r
  | exception e ->
      if Array.exists2 (fun td n -> td.tail.Vec.len < n) db.order m.lens then
        invalid_arg "Storage.atomically: the store was sealed inside";
      rollback db m;
      raise e

(* ------------------------------------------------------------------ *)
(* sealing, merging, freezing                                          *)
(* ------------------------------------------------------------------ *)

(* [b]'s rows follow [a]'s; its positions are all larger, so in every
   index they go in front of [a]'s (most recent first) *)
let merge_part a b =
  if Array.length b.rows = 0 then a
  else if Array.length a.rows = 0 then b
  else
    {
      rows = Array.append a.rows b.rows;
      base = a.base;
      idx = Array.map2 Index.merge a.idx b.idx;
    }

(* The merge rule, fixed: after a seal, while the newest segment holds
   at least half as many rows as the one before it, the two become one.
   Segments therefore at least halve from oldest to newest, so a table
   has at most log2(rows) + 1 of them for a probe to visit, and a row
   is merged again only when the rows sealed after it have grown to
   half its segment — a seal costs its own rows, amortized, times that
   logarithm. *)
let rec settle = function
  | newest :: prev :: older when 2 * newest.seg_rows >= prev.seg_rows ->
      settle
        ({
           parts = Array.map2 merge_part prev.parts newest.parts;
           seg_rows = prev.seg_rows + newest.seg_rows;
         }
        :: older)
  | segs -> segs

let seal db =
  if db.frozen then invalid_arg "Storage.seal: a frozen snapshot";
  let rows = Array.fold_left (fun n td -> n + td.tail.Vec.len) 0 db.order in
  if rows > 0 then begin
    let parts =
      Array.map
        (fun td ->
          let n = td.tail.Vec.len in
          let p =
            {
              rows = Array.sub td.tail.Vec.data 0 n;
              base = tail_base td;
              idx = Array.copy td.tail_idx;
            }
          in
          Vec.clear td.tail;
          Array.iteri (fun j _ -> td.tail_idx.(j) <- Index.create ()) td.tail_idx;
          p)
        db.order
    in
    db.sealed <- settle ({ parts; seg_rows = rows } :: db.sealed);
    let oldest_first = List.rev db.sealed in
    Array.iteri
      (fun t td ->
        td.segs <-
          List.filter_map
            (fun s ->
              let p = s.parts.(t) in
              if Array.length p.rows = 0 then None else Some p)
            oldest_first
          |> Array.of_list)
      db.order
  end

let table_stats td =
  let n = td.count in
  let columns =
    List.mapi
      (fun i (c : Rschema.column) ->
        let a = td.accs.(i) in
        let stats =
          {
            Rschema.distinct =
              float_of_int
                (if td.islot.(i) >= 0 then a.idistinct
                 else Values.length a.counts);
            null_frac =
              (if n = 0 then 0. else float_of_int a.nulls /. float_of_int n);
            v_min = (if a.has_int then Some a.vmin else None);
            v_max = (if a.has_int then Some a.vmax else None);
            avg_width =
              (if n = 0 then float_of_int (Rtype.width c.ctype)
               else float_of_int a.widths /. float_of_int n);
          }
        in
        { c with Rschema.stats })
      td.schema.columns
  in
  { td.schema with Rschema.columns; card = float_of_int n }

let freeze db =
  if db.frozen then db
  else begin
    seal db;
    (* a store over [db]'s sealed segments with the statistics [db]
       kept: no tail, no accumulators *)
    let order =
      Array.map
        (fun td ->
          {
            td with
            schema = table_stats td;
            tail = Vec.create ();
            tail_idx = fresh_indexes (Array.length td.tail_idx);
            accs = [||];
          })
        db.order
    in
    let tables = Hashtbl.create (Array.length order) in
    Array.iter (fun td -> Hashtbl.replace tables td.schema.tname td) order;
    Array.iter
      (fun td ->
        td.fks <-
          List.map
            (fun (pos, p) -> (pos, Hashtbl.find tables p.schema.tname))
            td.fks)
      order;
    {
      cat =
        {
          Rschema.tables =
            Array.to_list (Array.map (fun td -> td.schema) order);
        };
      tables;
      order;
      frozen = true;
      sealed = db.sealed;
    }
  end

let segments db = List.rev db.sealed
let segment_rows s = s.seg_rows

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
let write_tables ~spill b db rows_of =
  Wire.w_int b (Array.length db.order);
  Array.iteri
    (fun t td ->
      let n, iter = rows_of t td in
      Wire.w_str b td.schema.tname;
      Wire.w_int b td.arity;
      Wire.w_int b n;
      iter (fun row ->
          write_row b row;
          spill ()))
    db.order

let no_spill () = ()

let write_rows ?(spill = no_spill) b db =
  write_tables ~spill b db (fun _ td ->
      ( td.count,
        fun f ->
          Array.iter (fun p -> Array.iter f p.rows) td.segs;
          for i = 0 to td.tail.Vec.len - 1 do
            f td.tail.Vec.data.(i)
          done ))

let write_segment ?(spill = no_spill) b db s =
  if Array.length s.parts <> Array.length db.order then
    invalid_arg "Storage.write_segment: a segment of another catalog";
  write_tables ~spill b db (fun t _ ->
      let p = s.parts.(t) in
      (Array.length p.rows, fun f -> Array.iter f p.rows))

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
        match insert db tname (read_row cur ~arity) with
        | () -> ()
        | exception Violation m -> Wire.corrupt "malformed payload: %s" m
      done)
    db.cat.tables

let pp_summary fmt db =
  List.iter
    (fun (tbl : Rschema.table) ->
      Format.fprintf fmt "%-24s %8d rows@." tbl.tname (row_count db tbl.tname))
    db.cat.tables
