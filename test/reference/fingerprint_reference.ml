(* Frozen reference: the structural fingerprints as they were before
   they became framed bytes, kept verbatim apart from this comment and
   the [open].  The differential suite in test/test_mapping.ml holds
   {!Mapping}'s fingerprints to the same equalities on every IMDB
   configuration and every configuration a beam visits, and
   [bench search_perf] gates Mapping's allocation against this one.
   Do not "improve" this file. *)

open Legodb_relational

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

let catalog_fingerprint cat =
  String.concat ";"
    (List.sort String.compare (List.map snd (table_fingerprints cat)))
