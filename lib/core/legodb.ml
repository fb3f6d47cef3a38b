(* The public facade: one module to open, re-exporting every component
   library under a short name, plus the one-call design API. *)

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

module Imdb = struct
  module Schema = Legodb_imdb.Imdb_schema
  module Stats = Legodb_imdb.Imdb_stats
  module Queries = Legodb_imdb.Imdb_queries
  module Workloads = Legodb_imdb.Imdb_workloads
  module Gen = Legodb_imdb.Imdb_gen
end

type design = {
  schema : Xschema.t;  (** the selected p-schema *)
  mapping : Mapping.t;  (** its relational configuration *)
  cost : float;  (** estimated workload cost *)
  trace : Search.trace_entry list;  (** greedy iterations *)
  engine : Cost_engine.snapshot;  (** cost-engine work & cache totals *)
  stopped : Search.stopped;  (** convergence or the budget that tripped *)
  failures : Search.failure list;  (** candidates the pipeline couldn't cost *)
}

type strategy = Greedy_si | Greedy_so

let design ?(strategy = Greedy_si) ?params ?threshold ?jobs ?budget ~schema
    ~stats ~workload () =
  let annotated = Annotate.schema stats schema in
  let result =
    match strategy with
    | Greedy_si ->
        Search.greedy_si ?params ?threshold ?jobs ?budget ~workload annotated
    | Greedy_so ->
        Search.greedy_so ?params ?threshold ?jobs ?budget ~workload annotated
  in
  match Mapping.of_pschema result.Search.schema with
  | Ok mapping ->
      {
        schema = result.Search.schema;
        mapping;
        cost = result.Search.cost;
        trace = result.Search.trace;
        engine = result.Search.engine;
        stopped = result.Search.stopped;
        failures = result.Search.failures;
      }
  | Error es ->
      invalid_arg
        ("Legodb.design: selected schema failed to map: "
        ^ String.concat "; " es)

let report fmt d =
  Format.fprintf fmt "-- LegoDB storage design --@.";
  Format.fprintf fmt "estimated workload cost: %.1f@." d.cost;
  Format.fprintf fmt "greedy iterations: %d (%a)@."
    (List.length d.trace - 1)
    Search.pp_stopped d.stopped;
  (match d.failures with
  | [] -> ()
  | fs ->
      Format.fprintf fmt "uncostable candidates: %d@." (List.length fs);
      List.iter (Format.fprintf fmt "  %a@." Search.pp_failure) fs);
  Format.fprintf fmt "cost engine: %a@.@." Cost_engine.pp_snapshot d.engine;
  Format.fprintf fmt "%a@." Search.pp_trace d.trace;
  Format.fprintf fmt "selected p-schema:@.%a@." Xschema.pp d.schema;
  Format.fprintf fmt "relational configuration:@.@[<v>%a@]@." Rschema.pp
    d.mapping.Mapping.catalog
