(** The workload queries of Appendix C (Q1–Q20) and the four Section 2
    queries of Figure 5, parsed from their concrete syntax.

    Two appendix typos are fixed (documented in DESIGN.md):
    [Q12]/[Q13] bind [$m2 in $d/directed] (not [$a/directed]), and
    [Q13]'s aka loop returns [$v] (the aka itself).  Element names
    follow Appendix B ([episodes], not [episode]). *)

val q : int -> Legodb_xquery.Xq_ast.t
(** [q n] returns Qn for n in 1..20. @raise Invalid_argument otherwise. *)

val text : int -> string
(** [text n] is Qn's concrete syntax, as [q n] parses it.
    @raise Invalid_argument unless n is in 1..20. *)

val lookup_queries : Legodb_xquery.Xq_ast.t list
(** {Q8, Q9, Q11, Q12, Q13} — the lookup workload of Section 5.2. *)

val publish_queries : Legodb_xquery.Xq_ast.t list
(** {Q15, Q16, Q17} — the publish workload of Section 5.2. *)

val fig5 : int -> Legodb_xquery.Xq_ast.t
(** [fig5 n] for n in 1..4: the Section 2 queries (NYT reviews of 1999
    shows; publish all shows; description by title; episodes by guest
    director). *)

val all : Legodb_xquery.Xq_ast.t list
(** Q1–Q20 in order. *)
