(** Physical XML schemas: the stratified type grammar of Figure 9.

    A schema is a {e p-schema} when every type definition body lies in
    the stratified fragment, which guarantees the fixed relational
    mapping of Table 1 applies:

    - the {b physical} layer (scalars, attributes, singleton elements,
      sequences, optional physical types) maps to ordinary columns;
    - the {b optional} layer ([pt{0,1}]) maps to nullable columns;
    - the {b named} layer (type references, and sequences / unions /
      repetitions thereof) maps to child tables linked by foreign keys —
      so every union and every multi-occurrence position must mention
      only type names. *)

open Legodb_xtype

type violation = {
  tname : string;  (** the definition in which the violation occurs *)
  loc : Xtype.loc;  (** location of the offending sub-term in its body *)
  reason : string;
}

val pp_violation : Format.formatter -> violation -> unit

val check : Xschema.t -> (string list, violation list) result
(** All violations of the stratified grammar across reachable
    definitions, or, if the schema is a p-schema, [Ok] of the names it
    checked: {!Xschema.reachable}, in its order.  Also requires
    {!Xschema.check} well-formedness. *)

val is_pschema : Xschema.t -> bool
