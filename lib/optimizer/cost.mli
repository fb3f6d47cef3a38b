(** The optimizer's cost vocabulary.

    Following the paper (Section 5): "the cost of a query [is] estimated
    ... on the basis of a cost model that takes into account number of
    seeks, amount of data read, amount of data written, and CPU time for
    in-memory processing".  Costs are kept as a vector of those four
    components and collapsed to a scalar with configurable weights. *)

type t = {
  seeks : float;  (** random I/O operations *)
  pages_read : float;
  pages_written : float;
  cpu : float;  (** tuples touched by in-memory processing *)
}

val zero : t
val add : t -> t -> t
val scale : float -> t -> t
val ( + ) : t -> t -> t

type params = {
  page_size : float;  (** bytes per page *)
  seek_weight : float;  (** cost units per seek *)
  read_weight : float;  (** per page read *)
  write_weight : float;  (** per page written *)
  cpu_weight : float;  (** per tuple of in-memory processing *)
  memory_pages : float;  (** working memory for hash tables and sorts *)
}

val default_params : params
(** Magnetic-disk-era proportions matching the paper's setting: 8 KB
    pages, a seek worth ~40 sequential page transfers, CPU three orders
    of magnitude below I/O. *)

val pages : params -> float -> float
(** [pages p bytes] — number of pages occupied by [bytes], at least 1. *)

val total : params -> t -> float
(** Collapse to a scalar. *)
