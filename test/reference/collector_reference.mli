open Legodb_stats

(** Extraction of path statistics from sample XML documents
    (the "Statistics gathering" input of the architecture, Figure 7). *)

val collect : ?distinct_cap:int -> Legodb_xml.Xml.t -> Pathstat.t
(** Walk a document and record, for every element path: its occurrence
    count; for text-only elements the average text width and the number
    of distinct values (exact up to [distinct_cap] values per path,
    default 1_000_000, beyond which the count saturates); and for
    integer-valued text additionally the min and max.  Attribute values
    are treated like text-only children (the attribute name is the
    final path step). *)
