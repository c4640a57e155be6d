let () =
  Alcotest.run "omission_consensus"
    [
      ("rand", Test_rand.suite);
      ("stats", Test_stats.suite);
      ("exec", Test_exec.suite);
      ("expander", Test_expander.suite);
      ("groups", Test_groups.suite);
      ("engine", Test_engine.suite);
      ("supervise", Test_supervise.suite);
      ("voting", Test_voting.suite);
      ("core", Test_core.suite);
      ("auth", Test_auth.suite);
      ("adversary", Test_adversary.suite);
      ("optimal-omissions", Test_optimal.suite);
      ("param-omissions", Test_param.suite);
      ("baselines", Test_baselines.suite);
      ("operative-broadcast", Test_broadcast.suite);
      ("crash-subquadratic", Test_crash_sub.suite);
      ("lower-bound", Test_lowerbound.suite);
      ("valency", Test_valency.suite);
      ("phase-king", Test_phase_king.suite);
      ("harness", Test_harness.suite);
      ("trace", Test_trace.suite);
    ("mailbox", Test_mailbox.suite);
    ("engine-equiv", Test_engine_equiv.suite);
    ("net", Test_net.suite);
    ("cache", Test_cache.suite);
    ("jsonl", Test_jsonl.suite);
    ("codec", Test_codec.suite);
    ]
