(** {!Legodb_search.Search.beam}'s level loop as it ran before
    candidates were prepared once, frozen: sequential, unbudgeted, and
    deduplicating by {!Fingerprint_reference.catalog_fingerprint}. *)

open Legodb_xtype

val beam :
  ?kinds:Legodb_transform.Space.kind list ->
  ?width:int ->
  ?patience:int ->
  ?max_iterations:int ->
  Legodb_search.Cost_engine.t ->
  Xschema.t ->
  (Xschema.t * float) * Xschema.t list
(** [beam eng start] — the best configuration and its cost, as
    [Search.beam ~engine:eng] with the same defaults returns them, and
    every configuration costed through [eng], in costing order (the
    start first).  @raise Invalid_argument if [start] cannot be
    costed. *)
