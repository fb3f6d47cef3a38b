open Legodb_xtype
module Pschema = Legodb_pschema.Pschema
module Rewrite = Legodb_transform.Rewrite
open Legodb_relational

type position = Scalar of string list | Tag of string list | Wild of string list

(* What deriving a table read of other definitions, with the answer:
   whether a referrer is transparent, and a cardinality estimate with
   the definitions the estimate looked up. *)
type fact =
  | Transparent of string * bool
  | Card of string * string list * float option

(* A table derived once, with what its derivation read: its own
   definition (whole), facts about others, and the referrer lists of
   its parent climb.  A child configuration keeps the item as is when
   every one of those reads answers the same in the child. *)
type item = {
  table : Rschema.table;
  item_renamed : ((string * position) * string) list;
      (* this table's part of [renamed] *)
  facts : fact list;
  referrers_read : (string * string list) list;
}

(* What a table read answered: its column names, or its cardinality. *)
type table_read = Columns of string list | Card of float

(* A call a reader of the mapping logged as one read, with its answer:
   {!Navigate} logs each navigation this way. *)
type call = ..

(* Reads logged while a recording view ([record]) is consulted, newest
   first: whole definitions by name (adjacent repeats dropped); the
   root element of a definition, by its label and whether its content
   is scalar; every column named; every table's columns or cardinality
   looked up; every call logged. *)
type reads = {
  r_defs : string list;
  r_roots : (string * Label.t * bool) list;
  r_columns : (string * position * string) list;
  r_tables : (string * table_read) list;
  r_calls : call list;
}

type log = {
  mutable defs : string list;
  mutable roots : (string * Label.t * bool) list;
  mutable columns : (string * position * string) list;
  mutable tables : (string * table_read) list;
  mutable calls : call list;
}

(* A derived mapping against the one it was derived from: the
   definitions whose bodies differ ([Xschema.redefined]) and the tables
   whose records are not the parent's own ([==]). *)
type delta = { changed_defs : string list; changed_tables : string list }

type derivation = {
  items : item list;  (* catalog order *)
  delta : delta option;
  log : log option;
}

type t = {
  schema : Xschema.t;
  catalog : Rschema.t;
  transparent : string list;
  ordered : bool;
  renamed : ((string * position) * string) list;
  derivation : derivation;
}

(* table cardinality assumed when no statistics are annotated *)
let default_card = 1000.

let rec has_content t =
  match t with
  | Xtype.Scalar _ | Xtype.Attr _ | Xtype.Elem _ -> true
  | Xtype.Empty | Xtype.Ref _ -> false
  | Xtype.Seq ts | Xtype.Choice ts -> List.exists has_content ts
  | Xtype.Rep (u, _) -> has_content u

let is_transparent schema ty =
  match Xschema.find_opt schema ty with
  | Some body -> not (has_content body)
  | None -> false

module SSet = Set.Make (String)

(* The nearest data-bearing ancestors of [ty], climbing through
   transparent referrers, as a sorted set; [referrers] is
   [Xschema.referrers schema] and [transparent] {!is_transparent}. *)
let real_parents ~transparent referrers ty =
  let rec up seen d acc =
    if SSet.mem d seen then acc
    else
      let seen = SSet.add d seen in
      List.fold_left
        (fun acc referrer ->
          if transparent referrer then up seen referrer acc
          else SSet.add referrer acc)
        acc (referrers d)
  in
  SSet.elements (up SSet.empty ty SSet.empty)

let rec scalar_content = function
  | Xtype.Scalar _ -> true
  | Xtype.Choice ts -> ts <> [] && List.for_all scalar_content ts
  | Xtype.Empty | Xtype.Attr _ | Xtype.Elem _ | Xtype.Seq _ | Xtype.Rep _
  | Xtype.Ref _ ->
      false

(* ------------------------------------------------------------------ *)
(* read recording                                                      *)
(* ------------------------------------------------------------------ *)

let note_def m n =
  match m.derivation.log with
  | None -> ()
  | Some l -> (
      match l.defs with
      | d :: _ when String.equal d n -> ()
      | ds -> l.defs <- n :: ds)

let find_def m n =
  note_def m n;
  Xschema.find_opt m.schema n

type root = Rooted of Xtype.elem | Unrooted of Xtype.t | Undefined

let root_of m n =
  match Xschema.find_opt m.schema n with
  | Some (Xtype.Elem e) -> Rooted e
  | Some body -> Unrooted body
  | None -> Undefined

let find_root m n =
  let r = root_of m n in
  (match (r, m.derivation.log) with
  | _, None -> ()
  | Rooted e, Some l ->
      l.roots <- (n, e.label, scalar_content e.content) :: l.roots
  | (Unrooted _ | Undefined), Some _ -> note_def m n);
  r

let note_table m ty r =
  match m.derivation.log with
  | None -> ()
  | Some l -> l.tables <- (ty, r) :: l.tables

let record m f =
  let log = { defs = []; roots = []; columns = []; tables = []; calls = [] } in
  let v = f { m with derivation = { m.derivation with log = Some log } } in
  ( v,
    {
      r_defs = log.defs;
      r_roots = log.roots;
      r_columns = log.columns;
      r_tables = log.tables;
      r_calls = log.calls;
    } )

let recording m = Option.is_some m.derivation.log

let note_call m c =
  match m.derivation.log with
  | None -> ()
  | Some l -> l.calls <- c :: l.calls

let calls r = r.r_calls
let with_calls r calls = { r with r_calls = calls }

let changed names n = List.exists (String.equal n) names

let disjoint names changed_names =
  changed_names = [] || not (List.exists (changed changed_names) names)

(* ------------------------------------------------------------------ *)
(* column names                                                        *)
(* ------------------------------------------------------------------ *)

let rec drop_last = function
  | [] | [ _ ] -> []
  | x :: rest -> x :: drop_last rest

(* The naming rule, given the label of the table's root element: a
   position's path joined with '_', below a leading "tilde" step when
   the root is a wildcard; the root element's own scalar takes its tag
   ("data" without a root element).  A wildcard's value column takes the
   scalar name of the wildcard's parent (the paper's Reviews table keeps
   the tag in "tilde" and the value in "reviews"), or the tag column's
   name plus "_data" when the two would coincide. *)
let rule root position =
  let full path =
    match root with
    | Some (Label.Any | Label.Any_except _) -> "tilde" :: path
    | Some (Label.Name _) | None -> path
  in
  let scalar = function
    | [] -> ( match root with Some l -> Label.column_name l | None -> "data")
    | path -> String.concat "_" path
  in
  match position with
  | Scalar path -> scalar (full path)
  | Tag path -> String.concat "_" (full path)
  | Wild path ->
      let path = full path in
      let value = scalar (drop_last path) in
      if String.equal value (String.concat "_" path) then value ^ "_data"
      else value

let root_label schema ty =
  match Xschema.find_opt schema ty with
  | Some (Xtype.Elem e) -> Some e.Xtype.label
  | Some _ | None -> None

let column_name m ~ty position =
  let renamed =
    match m.renamed with
    | [] -> None
    | renamed -> List.assoc_opt (ty, position) renamed
  in
  match renamed with
  | Some c -> c
  | None -> rule (root_label m.schema ty) position

let column m ~ty position =
  let c = column_name m ~ty position in
  (match m.derivation.log with
  | None -> ()
  | Some l -> l.columns <- (ty, position, c) :: l.columns);
  c

let scalar_choice_width ts =
  List.fold_left
    (fun w t ->
      match t with
      | Xtype.Scalar (k, st) ->
          let width =
            match st with
            | Some s -> s.Xtype.width
            | None -> Xtype.default_width k
          in
          max w width
      | _ -> w)
    0 ts

(* pre-aggregated info about one data column *)
type col_spec = {
  s_pos : position;
  s_name : string;
  s_type : Rtype.t;
  s_nullable : bool;
  s_count : float;  (* occurrences of the value *)
  s_distinct : float option;
  s_vmin : int option;
  s_vmax : int option;
  s_width : float;  (* width of the value when present *)
}

(* The column of scalar content [t] at [pos].  A Choice of literal
   scalars maps to one string column (references to scalar-bodied types
   are NOT followed: those are stored in their own tables, matching the
   paper's AnyScalar example). *)
let value_spec root pos ~nullable ~count t =
  let kind, (st : Xtype.scalar_stats option) =
    match t with
    | Xtype.Scalar (kind, st) -> (kind, st)
    | Xtype.Choice ts ->
        let width = max 1 (scalar_choice_width ts) in
        ( Xtype.String_t,
          Some { Xtype.width; s_min = None; s_max = None; distinct = None } )
    | _ -> invalid_arg "Mapping.value_spec: not scalar content"
  in
  let width =
    match st with Some s -> s.Xtype.width | None -> Xtype.default_width kind
  in
  let ctype =
    match kind with
    | Xtype.String_t -> Rtype.R_string (Some width)
    | Xtype.Integer_t -> Rtype.R_int
  in
  {
    s_pos = pos;
    s_name = rule root pos;
    s_type = ctype;
    s_nullable = nullable;
    s_count = count;
    s_distinct =
      Option.bind st (fun s -> Option.map float_of_int s.Xtype.distinct);
    s_vmin = Option.bind st (fun s -> s.Xtype.s_min);
    s_vmax = Option.bind st (fun s -> s.Xtype.s_max);
    s_width = float_of_int width;
  }

(* Walk the physical layer of a type body collecting column specs. *)
let columns_of_body ~card body =
  let root = match body with Xtype.Elem e -> Some e.Xtype.label | _ -> None in
  let out = ref [] in
  let emit spec = out := spec :: !out in
  let rec walk ~nullable ~prefix ~count t =
    match t with
    | Xtype.Empty | Xtype.Ref _ -> ()
    | Xtype.Choice _ when not (scalar_content t) ->
        (* a union of type names: contributes no columns *)
        ()
    | Xtype.Scalar _ | Xtype.Choice _ ->
        emit (value_spec root (Scalar prefix) ~nullable ~count t)
    | Xtype.Attr (n, content) -> walk ~nullable ~prefix:(prefix @ [ n ]) ~count content
    | Xtype.Elem e -> (
        let count = Option.value ~default:count e.ann.count in
        match e.label with
        | Label.Name n ->
            walk ~nullable ~prefix:(prefix @ [ n ]) ~count e.content
        | Label.Any | Label.Any_except _ ->
            wildcard ~nullable ~count (prefix @ [ "tilde" ]) e)
    | Xtype.Seq ts -> List.iter (walk ~nullable ~prefix ~count) ts
    | Xtype.Rep (u, o) ->
        if o.Xtype.lo = 0 && o.Xtype.hi = Xtype.Bounded 1 then
          walk ~nullable:true ~prefix ~count u
        else (* multi-occurrence: type names only, no columns *) ()
  (* a wildcard element at [path]: a tag column, then its content *)
  and wildcard ~nullable ~count path (e : Xtype.elem) =
    let n_labels = List.length e.ann.labels in
    emit
      {
        s_pos = Tag path;
        s_name = rule root (Tag path);
        s_type = Rtype.R_string (Some 24);
        s_nullable = nullable;
        s_count = count;
        s_distinct =
          (if n_labels > 0 then Some (float_of_int n_labels) else None);
        s_vmin = None;
        s_vmax = None;
        s_width = 16.;
      };
    if scalar_content e.content then
      emit (value_spec root (Wild path) ~nullable ~count e.content)
    else walk ~nullable ~prefix:path ~count e.content
  in
  (match body with
  | Xtype.Elem e -> (
      let count = Option.value ~default:card e.ann.count in
      match e.label with
      | Label.Name _ -> walk ~nullable:false ~prefix:[] ~count e.content
      | Label.Any | Label.Any_except _ -> wildcard ~nullable:false ~count [] e)
  | body -> walk ~nullable:false ~prefix:[] ~count:card body);
  List.rev !out

let clamp01 x = Float.max 0. (Float.min 1. x)

let column_of_spec ~card spec =
  let present = clamp01 (spec.s_count /. Float.max 1. card) in
  let null_frac = if spec.s_nullable then clamp01 (1. -. present) else 0. in
  let distinct =
    let d =
      match spec.s_distinct with
      | Some d -> d
      | None -> Float.max 1. spec.s_count
    in
    Float.max 1. (Float.min d (Float.max 1. spec.s_count))
  in
  {
    Rschema.cname = spec.s_name;
    ctype = spec.s_type;
    nullable = spec.s_nullable;
    stats =
      {
        Rschema.distinct;
        null_frac;
        v_min = spec.s_vmin;
        v_max = spec.s_vmax;
        (* fixed-width storage, as in the paper's era: a CHAR(n) column
           occupies n bytes whether or not the row has a value — this is
           exactly why inlining a union "makes the Show relation wider
           than necessary" (Section 2) *)
        avg_width = Float.max 1. spec.s_width;
      };
  }

(* A repeated name [x] becomes [x_2], [x_3], ...; each renamed
   position of table [ty] is consed onto [renamed], except a position
   that repeats an earlier one (a repeated sibling tag, an attribute
   beside a child of the same name): its key cannot tell the two apart,
   so it keeps the first one's column. *)
let dedupe_names ty renamed specs =
  let seen = Hashtbl.create 16 in
  let rec repeats spec = function
    | s :: rest when s != spec -> s.s_pos = spec.s_pos || repeats spec rest
    | _ -> false
  in
  List.map
    (fun spec ->
      match Hashtbl.find_opt seen spec.s_name with
      | None ->
          Hashtbl.replace seen spec.s_name 1;
          spec
      | Some n ->
          Hashtbl.replace seen spec.s_name (n + 1);
          let s_name = Printf.sprintf "%s_%d" spec.s_name (n + 1) in
          if not (repeats spec specs) then
            renamed := ((ty, spec.s_pos), s_name) :: !renamed;
          { spec with s_name })
    specs

(* The table of type [ty], as an item recording every fact and
   referrer list the derivation looked up. *)
let table_of_type ~order_columns schema referrers ty =
  let facts = ref [] and lists = ref [] in
  let referrers d =
    let l = referrers d in
    lists := (d, l) :: !lists;
    l
  in
  let transparent n =
    let t = is_transparent schema n in
    facts := Transparent (n, t) :: !facts;
    t
  in
  let card_of n =
    let defs = ref [] in
    let c =
      Rewrite.card_of_def ~read:(fun d -> defs := d :: !defs) schema n
    in
    facts := Card (n, !defs, c) :: !facts;
    Option.value ~default:default_card c
  in
  let renamed = ref [] in
  let body = Xschema.find schema ty in
  let card = card_of ty in
  let card = Float.max 1. card in
  let key = Naming.key_col ty in
  let key_column =
    {
      Rschema.cname = key;
      ctype = Rtype.R_int;
      nullable = false;
      stats =
        {
          Rschema.distinct = card;
          null_frac = 0.;
          v_min = Some 0;
          v_max = Some (int_of_float card);
          avg_width = 4.;
        };
    }
  in
  let order_column =
    if order_columns then
      [
        {
          Rschema.cname = Naming.order_col;
          ctype = Rtype.R_int;
          nullable = false;
          stats =
            {
              Rschema.distinct = card;
              null_frac = 0.;
              v_min = None;
              v_max = None;
              avg_width = 4.;
            };
        };
      ]
    else []
  in
  let data_columns =
    columns_of_body ~card body
    |> dedupe_names ty renamed
    |> List.map (column_of_spec ~card)
  in
  let parents = real_parents ~transparent referrers ty in
  let multi = List.length parents > 1 in
  let fk_columns =
    List.map
      (fun parent ->
        let parent_card = card_of parent in
        {
          Rschema.cname = Naming.fk_col parent;
          ctype = Rtype.R_int;
          nullable = multi;
          stats =
            {
              Rschema.distinct = Float.max 1. (Float.min parent_card card);
              null_frac =
                (if multi then
                   1. -. (1. /. float_of_int (List.length parents))
                 else 0.);
              v_min = None;
              v_max = None;
              avg_width = 4.;
            };
        })
      parents
  in
  let table =
    {
      Rschema.tname = ty;
      key;
      columns = (key_column :: order_column) @ data_columns @ fk_columns;
      fks = List.map (fun p -> (Naming.fk_col p, p)) parents;
      indexed = key :: List.map Naming.fk_col parents;
      card;
    }
  in
  {
    table;
    item_renamed = !renamed;
    facts = !facts;
    referrers_read = !lists;
  }

(* An item of the parent serves the child [schema] when every read
   answers the same: its own definition is not redefined, every
   referrer list it read is equal, and every fact resting on a
   redefined definition comes out the same when asked again.  A
   cardinality estimate asked again may read other definitions than
   before: the item then carries the child's reads, so what it records
   always holds where it is kept. *)
let reusable ~changed_defs schema referrers it =
  let changed = changed changed_defs in
  let stale = function
    | Transparent (n, _) -> changed n
    | Card (_, defs, _) -> List.exists changed defs
  in
  let again = function
    | Transparent (n, t) as f ->
        if is_transparent schema n = t then Some f else None
    | Card (n, _, c) ->
        let defs = ref [] in
        let c' =
          Rewrite.card_of_def ~read:(fun d -> defs := d :: !defs) schema n
        in
        if Option.equal Float.equal c' c then Some (Card (n, !defs, c))
        else None
  in
  if
    changed it.table.Rschema.tname
    || not
         (List.for_all
            (fun (d, l) -> List.equal String.equal (referrers d) l)
            it.referrers_read)
  then None
  else if not (List.exists stale it.facts) then Some it
  else
    let facts =
      List.map (fun f -> if stale f then again f else Some f) it.facts
    in
    if List.for_all Option.is_some facts then
      Some { it with facts = List.map Option.get facts }
    else None

(* The mapping of [schema]; with a parent, every table whose item still
   holds is the parent's item, and the rest are derived afresh. *)
let build ~order_columns ?parent schema =
  match Pschema.check schema with
  | Error vs ->
      Error (List.map (Format.asprintf "%a" Pschema.pp_violation) vs)
  | Ok reachable -> (
      let transparent, concrete =
        List.partition (is_transparent schema) reachable
      in
      let referrers = Xschema.referrers schema in
      let fresh = table_of_type ~order_columns schema referrers in
      let items, delta =
        match parent with
        | None -> (List.map fresh concrete, None)
        | Some p ->
            let changed_defs = Xschema.redefined p.schema schema in
            let theirs = Hashtbl.create 32 in
            List.iter
              (fun it -> Hashtbl.replace theirs it.table.Rschema.tname it)
              p.derivation.items;
            let changed = ref [] in
            let items =
              List.map
                (fun ty ->
                  match Hashtbl.find_opt theirs ty with
                  | None ->
                      changed := ty :: !changed;
                      fresh ty
                  | Some it -> (
                      Hashtbl.remove theirs ty;
                      match reusable ~changed_defs schema referrers it with
                      | Some it -> it
                      | None ->
                          (* derived afresh, but the parent's record when
                             it comes out the same *)
                          let mine = fresh ty in
                          if
                            compare mine.table it.table = 0
                            && mine.item_renamed = it.item_renamed
                          then { mine with table = it.table }
                          else begin
                            changed := ty :: !changed;
                            mine
                          end))
                concrete
            in
            (* the parent's tables the child no longer has changed too *)
            let changed_tables =
              Hashtbl.fold (fun ty _ acc -> ty :: acc) theirs !changed
            in
            (items, Some { changed_defs; changed_tables })
      in
      let catalog = { Rschema.tables = List.map (fun it -> it.table) items } in
      (* the parent's records passed their own checks in the parent *)
      let valid (t : Rschema.table) =
        match delta with
        | Some d -> not (changed d.changed_tables t.Rschema.tname)
        | None -> false
      in
      match Rschema.validate ~valid catalog with
      | Ok () ->
          Ok
            {
              schema;
              catalog;
              transparent;
              ordered = order_columns;
              (* every table's renamed positions, the last table's
                 first: the order one pass consing them would give *)
              renamed =
                List.concat (List.rev_map (fun it -> it.item_renamed) items);
              derivation = { items; delta; log = None };
            }
      | Error es -> Error es)

let of_pschema ?(order_columns = false) schema = build ~order_columns schema

let derive ~parent schema =
  if String.equal (Xschema.root parent.schema) (Xschema.root schema) then
    build ~order_columns:parent.ordered ~parent schema
  else build ~order_columns:parent.ordered schema

(* ------------------------------------------------------------------ *)
(* structural fingerprints                                             *)
(* ------------------------------------------------------------------ *)

(* Fingerprints are exact byte strings: every field opens with a tag
   byte, a float is its IEEE bits (8 bytes little-endian), an integer
   8 bytes, and every variable-length field carries its length and
   every list its count (4 bytes little-endian each).  The framing is
   injective, so two fingerprints are equal exactly when the fields
   they frame are; no byte a column name contains can make two shapes
   collide.  A catalog's fingerprints are written through one [Buffer]
   and each is copied out of it once. *)

let add_u32 b n = Buffer.add_int32_le b (Int32.of_int n)
let add_int b n = Buffer.add_int64_le b (Int64.of_int n)

let add_float b tag f =
  Buffer.add_char b tag;
  Buffer.add_int64_le b (Int64.bits_of_float f)

let add_string b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

let add_frame b parts =
  add_u32 b (List.length parts);
  List.iter (add_string b) parts

(* the buffer's contents, leaving it empty for the next fingerprint *)
let take b =
  let s = Buffer.contents b in
  Buffer.clear b;
  s

(* One column, name-independent where names embed type names: the key
   and foreign-key columns are anonymized (tags [K] and [F]) because
   fresh type names differ between transformation orders that reach the
   same configuration; any other column keeps its name (tag [N]).  Then
   the type, nullability, the complete statistics and index
   membership. *)
let add_column_sig b (t : Rschema.table) (c : Rschema.column) =
  let s = c.Rschema.stats in
  if String.equal c.Rschema.cname t.Rschema.key then Buffer.add_char b 'K'
  else if List.mem_assoc c.Rschema.cname t.Rschema.fks then
    Buffer.add_char b 'F'
  else begin
    Buffer.add_char b 'N';
    add_string b c.Rschema.cname
  end;
  (match c.Rschema.ctype with
  | Rtype.R_int -> Buffer.add_char b 'I'
  | Rtype.R_string None -> Buffer.add_char b 'S'
  | Rtype.R_string (Some w) ->
      Buffer.add_char b 'C';
      add_int b w);
  Buffer.add_char b (if c.Rschema.nullable then '?' else '=');
  add_float b 'd' s.Rschema.distinct;
  add_float b 'z' s.Rschema.null_frac;
  let add_opt = function
    | Some v ->
        Buffer.add_char b '+';
        add_int b v
    | None -> Buffer.add_char b '-'
  in
  add_opt s.Rschema.v_min;
  add_opt s.Rschema.v_max;
  add_float b 'w' s.Rschema.avg_width;
  Buffer.add_char b (if Rschema.has_index t c.Rschema.cname then '!' else '.')

(* A table's shape, complete enough that two tables with equal shapes
   are costed identically by the optimizer: the cardinality, then every
   column's signature, sorted so column order does not matter. *)
let table_shape b (t : Rschema.table) =
  let columns =
    List.map
      (fun c ->
        add_column_sig b t c;
        take b)
      t.Rschema.columns
  in
  add_float b 'T' t.Rschema.card;
  add_frame b (List.sort String.compare columns);
  take b

(* One table's fingerprint with the shape it extends; [kept] when both
   are its parent catalog's, taken without rebuilding them. *)
type entry = {
  e_table : Rschema.table;
  e_shape : string;
  e_fp : string;
  kept : bool;
}

type fingerprints = {
  entries : (string * entry) list;  (* catalog order *)
  index : (string, entry) Hashtbl.t;
}

(* Every table's {!table_shape} extended with one Weisfeiler–Leman
   round over its parents' shapes, so the join topology is part of the
   fingerprint.  A query's cached cost is reusable exactly when the
   fingerprints of the tables it touches are unchanged.  With a parent,
   a table whose record is the parent's own ([==]) keeps its shape, and
   keeps its fingerprint too when each of its parents' records is the
   parent catalog's own (or absent from both). *)
let fingerprints ?parent (cat : Rschema.t) =
  let b = Buffer.create 1024 in
  let n = List.length cat.Rschema.tables in
  let theirs name =
    match parent with
    | None -> None
    | Some p -> Hashtbl.find_opt p.index name
  in
  (* name -> (shape, the parent's entry when the record is its own) *)
  let shapes = Hashtbl.create (2 * n) in
  List.iter
    (fun (t : Rschema.table) ->
      let shaped =
        match theirs t.Rschema.tname with
        | Some e when e.e_table == t -> (e.e_shape, Some e)
        | Some _ | None -> (table_shape b t, None)
      in
      Hashtbl.replace shapes t.Rschema.tname shaped)
    cat.Rschema.tables;
  let index = Hashtbl.create (2 * n) in
  let entries =
    List.map
      (fun (t : Rschema.table) ->
        let name = t.Rschema.tname in
        let shape, own = Hashtbl.find shapes name in
        let kept_parents () =
          List.for_all
            (fun (_, p) ->
              match Hashtbl.find_opt shapes p with
              | Some (_, Some _) -> true
              | Some (_, None) -> false
              | None -> Option.is_none (theirs p))
            t.Rschema.fks
        in
        let e =
          match own with
          | Some e when kept_parents () -> { e with kept = true }
          | Some _ | None ->
              (* one Weisfeiler–Leman round: a table's fingerprint
                 includes its parents' shapes, so the join topology
                 between tables is part of the fingerprint and
                 structurally symmetric tables hanging off different
                 parents stay distinct *)
              let parents =
                List.filter_map
                  (fun (_, p) -> Option.map fst (Hashtbl.find_opt shapes p))
                  t.Rschema.fks
              in
              Buffer.add_char b 'W';
              add_frame b (shape :: List.sort String.compare parents);
              { e_table = t; e_shape = shape; e_fp = take b; kept = false }
        in
        Hashtbl.replace index name e;
        (name, e))
      cat.Rschema.tables
  in
  { entries; index }

let fingerprint_list f = List.map (fun (name, e) -> (name, e.e_fp)) f.entries

let table_fingerprints cat = fingerprint_list (fingerprints cat)

let find_fingerprint f name =
  match Hashtbl.find_opt f.index name with
  | Some e -> Some e.e_fp
  | None -> None

let kept_fingerprint f name =
  match Hashtbl.find_opt f.index name with Some e -> e.kept | None -> false

(* Written straight into one string of the exact length: a catalog's
   fingerprint and a memo key run to kilobytes, past what the minor
   heap holds, so each is allocated once. *)
let frame_string tag ?index parts =
  let start = match index with Some _ -> 9 | None -> 5 in
  let len = List.fold_left (fun n p -> n + 4 + String.length p) start parts in
  let b = Bytes.create len in
  Bytes.set b 0 tag;
  Option.iter (fun i -> Bytes.set_int32_le b 1 (Int32.of_int i)) index;
  Bytes.set_int32_le b (start - 4) (Int32.of_int (List.length parts));
  ignore
    (List.fold_left
       (fun off p ->
         let n = String.length p in
         Bytes.set_int32_le b off (Int32.of_int n);
         Bytes.blit_string p 0 b (off + 4) n;
         off + 4 + n)
       start parts);
  Bytes.unsafe_to_string b

let catalog_fingerprint fps =
  frame_string 'C' (List.sort String.compare (List.map snd fps))

let card_of m ty = (Rschema.table m.catalog ty).Rschema.card

let columns_of m ty =
  List.map
    (fun (c : Rschema.column) -> c.Rschema.cname)
    (Rschema.table m.catalog ty).Rschema.columns

let card m ty =
  let c = card_of m ty in
  note_table m ty (Card c);
  c

let table_columns m ty =
  let cs = columns_of m ty in
  note_table m ty (Columns cs);
  cs

(* a read answered as it was: whole definitions not redefined, and every
   other read, when what it depends on changed, answering the same;
   logged calls are their logger's to check *)
let unchanged m r =
  match m.derivation.delta with
  | None -> false
  | Some { changed_defs; changed_tables } ->
      disjoint r.r_defs changed_defs
      && List.for_all
           (fun (n, label, scalar) ->
             (not (changed changed_defs n))
             ||
             match root_of m n with
             | Rooted e ->
                 Label.equal e.label label && scalar_content e.content = scalar
             | Unrooted _ | Undefined -> false)
           r.r_roots
      && List.for_all
           (fun (ty, position, c) ->
             (not (changed changed_defs ty || changed changed_tables ty))
             || String.equal (column_name m ~ty position) c)
           r.r_columns
      && List.for_all
           (fun (ty, read) ->
             (not (changed changed_tables ty))
             ||
             match (read, Rschema.find_table m.catalog ty) with
             | _, None -> false
             | Card c, Some _ -> Float.equal (card_of m ty) c
             | Columns cs, Some _ -> List.equal String.equal (columns_of m ty) cs)
           r.r_tables

let same_reads a b = compare a b = 0
