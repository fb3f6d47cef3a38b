(** The structural fingerprints as Printf-built text, frozen: the
    executable specification {!Legodb_mapping.Mapping}'s byte
    fingerprints are held to.  Two catalogs (two tables) must have
    equal byte fingerprints exactly when their text fingerprints here
    are equal. *)

open Legodb_relational

val table_fingerprints : Rschema.t -> (string * string) list
(** [(type name, text fingerprint)] for every table, in catalog
    order. *)

val catalog_fingerprint : Rschema.t -> string
(** The sorted table fingerprints joined. *)
