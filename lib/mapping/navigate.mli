(** Resolution of document paths against a mapped p-schema.

    Navigation answers, for an element position and a child step, where
    the step's data lives relationally: in a column of the same table
    (inlined), behind one or more foreign-key joins (outlined), in a
    wildcard's tag/value column pair, or in several of these at once
    (horizontally partitioned types, choices).  Transparent types add
    no hop — their children join directly to the data-bearing
    ancestor.

    This is what both the XQuery translator and the shredder use, so
    query translation and data placement can never disagree.  Every
    column it answers is {!Mapping.column}'s for the position. *)

type place = { ty : string; prefix : string list }
(** "At an element": inside table [ty]'s type, at inline element path
    [prefix] below the definition's root element. *)

type found =
  | F_elem of { hops : string list; place : place }
      (** an element; [hops] are the types entered (each a foreign-key
          join), empty when the element is inlined in the same table *)
  | F_column of { hops : string list; ty : string; column : string }
      (** a scalar element or attribute stored in [ty.column] *)
  | F_wild of {
      hops : string list;
      ty : string;
      tilde : string;  (** tag column *)
      data : string;  (** value column *)
      tag : string;  (** the concrete tag the step asked for *)
    }  (** a step matched by a wildcard element *)

val enter_root : Mapping.t -> string -> found list
(** Match the document root element (the first binding step). *)

val navigate : Mapping.t -> place -> string -> found list
(** All resolutions of one child step from a place. *)

val navigate_path : Mapping.t -> found list -> string list -> found list
(** Multi-step resolution from the given answers (from a place [p]:
    [[F_elem { hops = []; place = p }]]); intermediate steps must land
    on elements, and hops accumulate. *)

val descendant_tables : Mapping.t -> place -> string list list
(** Join chains (as in [found.hops], always non-empty) to every
    descendant table below a place, depth-first; recursive types are
    expanded one level.  Used to decompose publishing queries. *)

val pp_found : Format.formatter -> found -> unit
