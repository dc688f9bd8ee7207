let () =
  Alcotest.run "mqdp"
    [
      ("util", Test_util.suite);
      ("lint", Test_lint.suite);
      ("telemetry", Test_telemetry.suite);
      ("label-set", Test_label_set.suite);
      ("instance", Test_instance.suite);
      ("coverage", Test_coverage.suite);
      ("pair-index", Test_pair_index.suite);
      ("window-index", Test_window_index.suite);
      ("set-cover", Test_set_cover.suite);
      ("algorithms", Test_algorithms.suite);
      ("opt", Test_opt.suite);
      ("baselines", Test_baselines.suite);
      ("spatial", Test_spatial.suite);
      ("streaming", Test_streaming.suite);
      ("online", Test_online.suite);
      ("feed", Test_feed.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("proportional", Test_proportional.suite);
      ("metrics", Test_metrics.suite);
      ("solver", Test_solver.suite);
      ("supervisor", Test_supervisor.suite);
      ("sat", Test_sat.suite);
      ("hardness", Test_hardness.suite);
      ("text", Test_text.suite);
      ("stemmer", Test_stemmer.suite);
      ("index", Test_index.suite);
      ("ranked", Test_ranked.suite);
      ("post-io", Test_post_io.suite);
      ("serve", Test_serve.suite);
      ("fanout", Test_fanout.suite);
      ("transport", Test_transport.suite);
      ("lda", Test_lda.suite);
      ("workload", Test_workload.suite);
      ("integration", Test_integration.suite);
    ]
