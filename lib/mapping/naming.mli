(** The names of the columns derived from a type name: keys, foreign
    keys and the document-order column.

    Data columns are named by {!Mapping.column} alone, so a column
    computed from a schema position always matches the column generated
    for it. *)

val key_col : string -> string
(** [key_col "Show"] is ["Show_id"]. *)

val fk_col : string -> string
(** [fk_col "Show"] is ["parent_Show"] — the foreign key a child table
    holds towards parent type [Show]. *)

val order_col : string
(** ["doc_order"] — the global document-order column added to every
    table when the mapping is built with [~order_columns:true]. *)
