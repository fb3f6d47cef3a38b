(** Physical plans: what the optimizer chooses and the executor runs. *)

type access =
  | Seq_scan
  | Index_probe of { column : string }
      (** equality probe with a constant (or a bound parameter slot)
          taken from the scan's filters *)

type join_method =
  | Hash_join  (** build on the right input, probe with the left *)
  | Index_nl of { column : string }
      (** for each left row, index lookup on the right base table *)
  | Nl_join  (** naive nested loops (kept for completeness) *)

type plan =
  | Scan of {
      rel : Logical.relation;
      access : access;
      filters : Logical.pred list;  (** all local predicates, re-checked *)
    }
  | Join of {
      jm : join_method;
      left : plan;
      right : plan;
      conds : (Logical.col * Logical.col) list;
          (** equality pairs, left column first *)
      extra : Logical.pred list;  (** non-equality cross predicates *)
    }

val relations : plan -> Logical.relation list
val pp : Format.formatter -> plan -> unit
