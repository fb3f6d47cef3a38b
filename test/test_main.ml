let () =
  Alcotest.run "legodb"
    [
      ("xml", Test_xml.suite);
      ("xtype", Test_xtype.suite);
      ("xschema", Test_xschema.suite);
      ("xtype-parse", Test_xtype_parse.suite);
      ("xsd", Test_xsd.suite);
      ("validate", Test_validate.suite);
      ("stats", Test_stats.suite);
      ("pschema", Test_pschema.suite);
      ("transform", Test_transform.suite);
      ("init", Test_init.suite);
      ("relational", Test_relational.suite);
      ("optimizer", Test_optimizer.suite);
      ("optimizer-perf", Test_optimizer_perf.suite);
      ("xquery", Test_xquery.suite);
      ("mapping", Test_mapping.suite);
      ("translate", Test_translate.suite);
      ("shred", Test_shred.suite);
      ("shred-ordered", Test_shred.ordered_suite);
      ("search", Test_search.suite);
      ("cost-engine", Test_cost_engine.suite);
      ("par", Test_par.suite);
      ("budget", Test_budget.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("updates", Test_updates.suite);
      ("beam", Test_search.beam_suite);
      ("serve", Test_serve.suite);
      ("serve-properties", Test_serve.props);
      ("templates", Test_templates.props);
      ("wal", Test_wal.suite @ Test_wal.segment_cases);
      ("wal-properties", Test_wal.props);
      ("iobuf", Test_iobuf.suite);
      ("net", Test_net.suite);
      ("net-properties", Test_net.props);
      ("integration", Test_integration.suite);
      ("calibration", Test_integration.calibration_suite);
      ("all-queries", Test_integration.all_queries_suite);
      ("properties", Test_props.suite);
      ("edge", Test_edge.suite);
      ("properties-extra", Test_props.extra);
      ("load", Test_load.suite);
      ("executor", Test_executor.suite);
      ("wire", Test_wire.suite);
      ("derive", Test_derive.suite);
      ("storage", Test_storage.suite);
    ]
