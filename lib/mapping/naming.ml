let key_col ty = ty ^ "_id"
let fk_col parent = "parent_" ^ parent

(* global document-order column (opt-in, see Mapping.of_pschema) *)
let order_col = "doc_order"
