open Legodb_xtype
module Pschema = Legodb_pschema.Pschema
module Rewrite = Legodb_transform.Rewrite
open Legodb_relational

type t = {
  schema : Xschema.t;
  catalog : Rschema.t;
  transparent : string list;
  ordered : bool;
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

let real_parents schema ty =
  let rec up seen d acc =
    if SSet.mem d seen then acc
    else
      let seen = SSet.add d seen in
      List.fold_left
        (fun acc referrer ->
          if is_transparent schema referrer then up seen referrer acc
          else SSet.add referrer acc)
        acc (Xschema.parents schema d)
  in
  SSet.elements (up SSet.empty ty SSet.empty)

let root_tag schema ty =
  match Xschema.find_opt schema ty with
  | Some (Xtype.Elem e) -> Some (Label.column_name e.label)
  | Some _ | None -> None

(* A Choice of literal scalars maps to one string column (references to
   scalar-bodied types are NOT followed: those are stored in their own
   tables, matching the paper's AnyScalar example). *)
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

let all_scalars ts =
  List.for_all (function Xtype.Scalar _ -> true | _ -> false) ts

(* pre-aggregated info about one data column *)
type col_spec = {
  s_name : string;
  s_type : Rtype.t;
  s_nullable : bool;
  s_count : float;  (* occurrences of the value *)
  s_distinct : float option;
  s_vmin : int option;
  s_vmax : int option;
  s_width : float;  (* width of the value when present *)
}

let scalar_spec ~name ~nullable ~count kind (st : Xtype.scalar_stats option) =
  let width =
    match st with Some s -> s.Xtype.width | None -> Xtype.default_width kind
  in
  let ctype =
    match kind with
    | Xtype.String_t -> Rtype.R_string (Some width)
    | Xtype.Integer_t -> Rtype.R_int
  in
  {
    s_name = name;
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
let columns_of_body ~root_tag ~card body =
  let out = ref [] in
  let emit spec = out := spec :: !out in
  let rec walk ~nullable ~prefix ~count t =
    match t with
    | Xtype.Empty | Xtype.Ref _ -> ()
    | Xtype.Scalar (kind, st) ->
        emit
          (scalar_spec
             ~name:(Naming.data_col prefix ~root_tag)
             ~nullable ~count kind st)
    | Xtype.Choice ts when all_scalars ts ->
        let width = max 1 (scalar_choice_width ts) in
        emit
          (scalar_spec
             ~name:(Naming.data_col prefix ~root_tag)
             ~nullable ~count Xtype.String_t
             (Some { Xtype.width; s_min = None; s_max = None; distinct = None }))
    | Xtype.Attr (n, content) -> walk ~nullable ~prefix:(prefix @ [ n ]) ~count content
    | Xtype.Elem e -> (
        let count = Option.value ~default:count e.ann.count in
        match e.label with
        | Label.Name n ->
            walk ~nullable ~prefix:(prefix @ [ n ]) ~count e.content
        | Label.Any | Label.Any_except _ ->
            let n_labels = List.length e.ann.labels in
            emit
              {
                s_name = Naming.tilde_col prefix ~root_tag;
                s_type = Rtype.R_string (Some 24);
                s_nullable = nullable;
                s_count = count;
                s_distinct =
                  (if n_labels > 0 then Some (float_of_int n_labels) else None);
                s_vmin = None;
                s_vmax = None;
                s_width = 16.;
              };
            let value_prefix = prefix @ [ "tilde" ] in
            (match e.content with
            | Xtype.Scalar (kind, st) ->
                emit
                  (scalar_spec
                     ~name:(Naming.tilde_data_col prefix ~root_tag)
                     ~nullable ~count kind st)
            | content -> walk ~nullable ~prefix:value_prefix ~count content))
    | Xtype.Seq ts -> List.iter (walk ~nullable ~prefix ~count) ts
    | Xtype.Choice _ ->
        (* a union of type names: contributes no columns *)
        ()
    | Xtype.Rep (u, o) ->
        if o.Xtype.lo = 0 && o.Xtype.hi = Xtype.Bounded 1 then
          walk ~nullable:true ~prefix ~count u
        else (* multi-occurrence: type names only, no columns *) ()
  in
  (match body with
  | Xtype.Elem e ->
      let count = Option.value ~default:card e.ann.count in
      (match e.label with
      | Label.Name _ -> walk ~nullable:false ~prefix:[] ~count e.content
      | Label.Any | Label.Any_except _ ->
          (* wildcard root element: tag column plus content *)
          emit
            {
              s_name = Naming.tilde_col [] ~root_tag;
              s_type = Rtype.R_string (Some 24);
              s_nullable = false;
              s_count = count;
              s_distinct =
                (match e.ann.labels with
                | [] -> None
                | ls -> Some (float_of_int (List.length ls)));
              s_vmin = None;
              s_vmax = None;
              s_width = 16.;
            };
          (match e.content with
          | Xtype.Scalar (kind, st) ->
              emit
                (scalar_spec
                   ~name:(Naming.tilde_data_col [] ~root_tag)
                   ~nullable:false ~count kind st)
          | content -> walk ~nullable:false ~prefix:[ "tilde" ] ~count content))
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

let dedupe_names specs =
  let seen = Hashtbl.create 16 in
  List.map
    (fun spec ->
      match Hashtbl.find_opt seen spec.s_name with
      | None ->
          Hashtbl.replace seen spec.s_name 1;
          spec
      | Some n ->
          Hashtbl.replace seen spec.s_name (n + 1);
          { spec with s_name = Printf.sprintf "%s_%d" spec.s_name (n + 1) })
    specs

let table_of_type ?(order_columns = false) schema ty =
  let body = Xschema.find schema ty in
  let card =
    Option.value ~default:default_card (Rewrite.card_of_def schema ty)
  in
  let card = Float.max 1. card in
  let root_tag =
    match body with
    | Xtype.Elem e -> Label.column_name e.Xtype.label
    | _ -> ""
  in
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
    columns_of_body ~root_tag ~card body
    |> dedupe_names
    |> List.map (column_of_spec ~card)
  in
  let parents = real_parents schema ty in
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
      let live = Xschema.reachable schema in
      let concrete =
        List.filter (fun ty -> not (is_transparent schema ty)) live
      in
      let tables = List.map (table_of_type ~order_columns schema) concrete in
      let catalog = { Rschema.tables } in
      (match Rschema.validate catalog with
      | Ok () ->
          Ok
            {
              schema;
              catalog;
              transparent =
                List.filter (fun ty -> is_transparent schema ty) live;
              ordered = order_columns;
            }
      | Error es -> Error es)

(* ------------------------------------------------------------------ *)
(* structural fingerprints                                             *)
(* ------------------------------------------------------------------ *)

(* Name-independent serialization of one table, complete enough that
   two tables with equal shapes are costed identically by the
   optimizer: every column with its full statistics (hex-printed floats
   so the serialization is exact), nullability, index membership and
   the table cardinality.  Key and foreign-key columns are anonymized
   ([#key]/[#fk]) because their names embed type names, and fresh type
   names differ between transformation orders that reach the same
   configuration. *)
let table_shape (t : Rschema.table) =
  let stats_sig (s : Rschema.col_stats) =
    Printf.sprintf "%h,%h,%s,%s,%h" s.Rschema.distinct s.Rschema.null_frac
      (match s.Rschema.v_min with Some v -> string_of_int v | None -> "")
      (match s.Rschema.v_max with Some v -> string_of_int v | None -> "")
      s.Rschema.avg_width
  in
  let col_sig (c : Rschema.column) =
    let name =
      if String.equal c.Rschema.cname t.Rschema.key then "#key"
      else if List.mem_assoc c.Rschema.cname t.Rschema.fks then "#fk"
      else c.Rschema.cname
    in
    Printf.sprintf "%s:%s%s{%s}%s" name
      (Rtype.to_sql c.Rschema.ctype)
      (if c.Rschema.nullable then "?" else "")
      (stats_sig c.Rschema.stats)
      (if Rschema.has_index t c.Rschema.cname then "!" else "")
  in
  Printf.sprintf "[%s|%h]"
    (String.concat ";" (List.sort String.compare (List.map col_sig t.Rschema.columns)))
    t.Rschema.card

(* [(type name, fingerprint)] for every table: its {!table_shape}
   extended with one Weisfeiler–Leman round over its parents' shapes,
   so the join topology is part of the fingerprint.  A query's cached
   cost is reusable exactly when the fingerprints of the tables it
   touches are unchanged. *)
let table_fingerprints (cat : Rschema.t) =
  let shapes = Hashtbl.create (2 * List.length cat.Rschema.tables) in
  List.iter
    (fun (t : Rschema.table) ->
      Hashtbl.replace shapes t.Rschema.tname (table_shape t))
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
      ( t.Rschema.tname,
        Hashtbl.find shapes t.Rschema.tname
        ^ "<"
        ^ String.concat "," (List.sort String.compare parents)
        ^ ">" ))
    cat.Rschema.tables

let fingerprint_index cat =
  let index = Hashtbl.create 64 in
  List.iter (fun (name, fp) -> Hashtbl.replace index name fp) (table_fingerprints cat);
  index

let catalog_fingerprint cat =
  String.concat ";"
    (List.sort String.compare (List.map snd (table_fingerprints cat)))

let card m ty = (Rschema.table m.catalog ty).Rschema.card

let table_columns m ty =
  List.map
    (fun (c : Rschema.column) -> c.Rschema.cname)
    (Rschema.table m.catalog ty).Rschema.columns
