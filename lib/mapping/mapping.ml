open Legodb_xtype
module Pschema = Legodb_pschema.Pschema
module Rewrite = Legodb_transform.Rewrite
open Legodb_relational

type position = Scalar of string list | Tag of string list | Wild of string list

type t = {
  schema : Xschema.t;
  catalog : Rschema.t;
  transparent : string list;
  ordered : bool;
  renamed : ((string * position) * string) list;
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
   [Xschema.referrers schema]. *)
let real_parents schema referrers ty =
  let rec up seen d acc =
    if SSet.mem d seen then acc
    else
      let seen = SSet.add d seen in
      List.fold_left
        (fun acc referrer ->
          if is_transparent schema referrer then up seen referrer acc
          else SSet.add referrer acc)
        acc (referrers d)
  in
  SSet.elements (up SSet.empty ty SSet.empty)

(* ------------------------------------------------------------------ *)
(* column names                                                        *)
(* ------------------------------------------------------------------ *)

let rec scalar_content = function
  | Xtype.Scalar _ -> true
  | Xtype.Choice ts -> ts <> [] && List.for_all scalar_content ts
  | Xtype.Empty | Xtype.Attr _ | Xtype.Elem _ | Xtype.Seq _ | Xtype.Rep _
  | Xtype.Ref _ ->
      false

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

let column m ~ty position =
  let renamed =
    match m.renamed with
    | [] -> None
    | renamed -> List.assoc_opt (ty, position) renamed
  in
  match renamed with
  | Some c -> c
  | None -> rule (root_label m.schema ty) position

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
   position of table [ty] is added to [renamed], except a position that
   repeats an earlier one (a repeated sibling tag, an attribute beside a
   child of the same name): its key cannot tell the two apart, so it
   keeps the first one's column. *)
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

let table_of_type ~order_columns schema referrers renamed ty =
  let body = Xschema.find schema ty in
  let card =
    Option.value ~default:default_card (Rewrite.card_of_def schema ty)
  in
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
  let parents = real_parents schema referrers ty in
  let multi = List.length parents > 1 in
  let fk_columns =
    List.map
      (fun parent ->
        let parent_card =
          Option.value ~default:default_card (Rewrite.card_of_def schema parent)
        in
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
  {
    Rschema.tname = ty;
    key;
    columns = (key_column :: order_column) @ data_columns @ fk_columns;
    fks = List.map (fun p -> (Naming.fk_col p, p)) parents;
    indexed = key :: List.map Naming.fk_col parents;
    card;
  }

let of_pschema ?(order_columns = false) schema =
  match Pschema.check schema with
  | Error vs ->
      Error (List.map (Format.asprintf "%a" Pschema.pp_violation) vs)
  | Ok () ->
      let transparent, concrete =
        List.partition (is_transparent schema) (Xschema.reachable schema)
      in
      let referrers = Xschema.referrers schema in
      let renamed = ref [] in
      let tables =
        List.map
          (table_of_type ~order_columns schema referrers renamed)
          concrete
      in
      let catalog = { Rschema.tables } in
      (match Rschema.validate catalog with
      | Ok () ->
          Ok
            {
              schema;
              catalog;
              transparent;
              ordered = order_columns;
              renamed = !renamed;
            }
      | Error es -> Error es)

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

(* [(type name, fingerprint)] for every table: its {!table_shape}
   extended with one Weisfeiler–Leman round over its parents' shapes,
   so the join topology is part of the fingerprint.  A query's cached
   cost is reusable exactly when the fingerprints of the tables it
   touches are unchanged. *)
let table_fingerprints (cat : Rschema.t) =
  let b = Buffer.create 1024 in
  let shapes = Hashtbl.create (2 * List.length cat.Rschema.tables) in
  List.iter
    (fun (t : Rschema.table) ->
      Hashtbl.replace shapes t.Rschema.tname (table_shape b t))
    cat.Rschema.tables;
  (* one Weisfeiler–Leman round: a table's fingerprint includes its
     parents' shapes, so the join topology between tables is part of
     the fingerprint and structurally symmetric tables hanging off
     different parents stay distinct *)
  List.map
    (fun (t : Rschema.table) ->
      let parents =
        List.filter_map (fun (_, p) -> Hashtbl.find_opt shapes p) t.Rschema.fks
      in
      Buffer.add_char b 'W';
      add_frame b
        (Hashtbl.find shapes t.Rschema.tname
        :: List.sort String.compare parents);
      (t.Rschema.tname, take b))
    cat.Rschema.tables

let fingerprint_index fps =
  let index = Hashtbl.create (2 * List.length fps) in
  List.iter (fun (name, fp) -> Hashtbl.replace index name fp) fps;
  index

let catalog_fingerprint fps =
  let fps = List.sort String.compare (List.map snd fps) in
  let b =
    Buffer.create (List.fold_left (fun n f -> n + 4 + String.length f) 5 fps)
  in
  Buffer.add_char b 'C';
  add_frame b fps;
  Buffer.contents b

let card m ty = (Rschema.table m.catalog ty).Rschema.card

let table_columns m ty =
  List.map
    (fun (c : Rschema.column) -> c.Rschema.cname)
    (Rschema.table m.catalog ty).Rschema.columns
