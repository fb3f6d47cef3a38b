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
    column it answers is {!Mapping.column}'s for the position.  Each
    answer is given once, at its first occurrence: the branches of a
    union that share a position or a table (union factoring after
    distribution) reach it once per branch, but it is one place to
    read, so storages with equal catalogs navigate alike. *)

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
    on elements, hops accumulate, and each step's answers are
    distinct. *)

val descendant_tables : Mapping.t -> place -> string list list
(** Join chains (as in [found.hops], always non-empty) to every
    descendant table below a place, depth-first, each once; recursive
    types are expanded one level.  Used to decompose publishing
    queries. *)

val recheck : Mapping.t -> Mapping.reads -> Mapping.reads option
(** {!Mapping.unchanged}, extended to the navigations logged in the
    reads: under a recording view ({!Mapping.record}) {!enter_root},
    {!navigate} and {!descendant_tables} each log one read — the call,
    its answer and the reads that answered it — and a mapping made by
    {!Mapping.derive} answers it the same when none of those reads
    changed, or when asking it again gives the same answer.  [Some r]
    when every read answers the same: [r] is the reads given, with
    each navigation asked again carrying the reads that answered it in
    the new mapping, so reads kept always hold where they are kept. *)

val pp_found : Format.formatter -> found -> unit
