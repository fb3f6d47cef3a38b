(** LegoDB: cost-based XML-to-relational storage design.

    This is the public facade.  Components are re-exported under short
    names; the one-call API is {!design}:

    {[
      let d =
        Legodb.design
          ~schema:Legodb.Imdb.Schema.schema
          ~stats:Legodb.Imdb.Stats.full
          ~workload:Legodb.Imdb.Workloads.lookup ()
      in
      Format.printf "%a" Legodb.report d
    ]} *)

(** {1 Components} *)

module Wire = Legodb_wire.Wire
module Xml = Legodb_xml.Xml
module Xml_parse = Legodb_xml.Xml_parse
module Label = Legodb_xtype.Label
module Xtype = Legodb_xtype.Xtype
module Xschema = Legodb_xtype.Xschema
module Xtype_parse = Legodb_xtype.Xtype_parse
module Xsd_import = Legodb_xtype.Xsd_import
module Validate = Legodb_xtype.Validate
module Pathstat = Legodb_stats.Pathstat
module Collector = Legodb_stats.Collector
module Annotate = Legodb_stats.Annotate
module Pschema = Legodb_pschema.Pschema
module Rewrite = Legodb_transform.Rewrite
module Init = Legodb_transform.Init
module Space = Legodb_transform.Space
module Rtype = Legodb_relational.Rtype
module Rschema = Legodb_relational.Rschema
module Sql = Legodb_relational.Sql
module Storage = Legodb_relational.Storage
module Cost = Legodb_optimizer.Cost
module Logical = Legodb_optimizer.Logical
module Physical = Legodb_optimizer.Physical
module Estimate = Legodb_optimizer.Estimate
module Optimizer = Legodb_optimizer.Optimizer
module Executor = Legodb_optimizer.Executor
module Xq_ast = Legodb_xquery.Xq_ast
module Xq_parse = Legodb_xquery.Xq_parse
module Workload = Legodb_xquery.Workload
module Xq_eval = Legodb_xquery.Xq_eval
module Naming = Legodb_mapping.Naming
module Mapping = Legodb_mapping.Mapping
module Navigate = Legodb_mapping.Navigate
module Xq_translate = Legodb_mapping.Xq_translate
module Shred = Legodb_mapping.Shred
module Publish = Legodb_mapping.Publish
module Search = Legodb_search.Search
module Cost_engine = Legodb_search.Cost_engine
module Budget = Legodb_search.Budget
module Checkpoint = Legodb_search.Checkpoint
module Par = Legodb_search.Par
module Serve = Legodb_serve.Serve
module Wal = Legodb_serve.Wal
module Net = Legodb_serve.Net
module Iobuf = Legodb_serve.Iobuf

(** The IMDB application of the paper's evaluation. *)
module Imdb : sig
  module Schema = Legodb_imdb.Imdb_schema
  module Stats = Legodb_imdb.Imdb_stats
  module Queries = Legodb_imdb.Imdb_queries
  module Workloads = Legodb_imdb.Imdb_workloads
  module Gen = Legodb_imdb.Imdb_gen
end

(** {1 One-call design} *)

type design = {
  schema : Xschema.t;  (** the selected p-schema *)
  mapping : Mapping.t;  (** its relational configuration *)
  cost : float;  (** estimated workload cost *)
  trace : Search.trace_entry list;  (** greedy iterations, first = initial *)
  engine : Cost_engine.snapshot;
      (** the search's cost-engine totals: configurations costed, cache
          hit rate, faults, per-layer wall time *)
  stopped : Search.stopped;
      (** why the search returned: [`Converged], or the budget/interrupt
          that cut it short (the design is then the best found so far) *)
  failures : Search.failure list;
      (** candidate configurations the costing pipeline failed on,
          skipped with a structured record instead of silently *)
}

type strategy =
  | Greedy_si  (** start all-inlined, explore outlining (default) *)
  | Greedy_so  (** start all-outlined, explore inlining *)

val design :
  ?strategy:strategy ->
  ?threshold:float ->
  ?jobs:int ->
  ?budget:Budget.t ->
  schema:Xschema.t ->
  stats:Pathstat.t ->
  workload:Workload.t ->
  unit ->
  design
(** Annotate the schema with the statistics, run the greedy search, and
    return the chosen configuration.  [?jobs] costs the neighbor
    configurations of each search iteration on that many cores
    ([0] = one per core; see {!Search.greedy}) — the selected design is
    bit-identical for every value.  [?budget] makes the search anytime:
    when it trips, the best design found so far is returned and
    [design.stopped] names the reason (see {!Budget}).  The search
    prices as the paper does ({!Search.greedy}'s default engine); a
    caller pricing otherwise runs the search on its own engine and
    passes the result to {!of_result}.
    @raise Search.Cost_error if no configuration can be costed.
    @raise Invalid_argument on internal mapping failure. *)

val of_result : Search.result -> (design, string list) result
(** The design a search selected: the result with its schema's
    relational configuration, or the mapping errors if that schema
    does not map (which no search's result should do). *)

val report : Format.formatter -> design -> unit
(** Human-readable summary: cost, greedy trace, selected p-schema, and
    the relational configuration. *)
