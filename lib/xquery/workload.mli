(** Weighted query workloads. *)

type t = (Xq_ast.t * float) list
(** Queries with relative weights, e.g.
    [W1 = {Q1: 0.4, Q2: 0.4, Q3: 0.1, Q4: 0.1}]. *)

val of_queries : Xq_ast.t list -> t
(** Uniform weights summing to 1. *)

val normalize : t -> t
(** Scale weights to sum to 1 (identity on an empty workload). *)

val total_weight : t -> float

val mix : float -> t -> t -> t
(** [mix k a b] combines two workloads in the ratio [k : (1-k)] —
    the workload spectrum of Section 5.3.  Both inputs are normalized
    first. *)

val queries : t -> Xq_ast.t list
