let () =
  Alcotest.run "eraser"
    [
      ("bits", Test_bits.suite);
      ("ir", Test_ir.suite);
      ("builder", Test_builder.suite);
      ("cfg-vdg", Test_cfg_vdg.suite);
      ("simulator", Test_simulator.suite);
      ("repr", Test_repr.suite);
      ("fault", Test_fault.suite);
      ("circuits", Test_circuits.suite);
      ("export", Test_export.suite);
      ("verilog-roundtrip", Test_verilog_roundtrip.suite);
      ("samples", Test_samples.suite);
      ("engines", Test_engines.suite);
      ("classify", Test_classify.suite);
      ("transient", Test_transient.suite);
      ("differential", Test_rand_diff.suite);
      ("resilient", Test_resilient.suite);
      ("ivec", Test_ivec.suite);
      ("pool", Test_pool.suite);
      ("chaos", Test_chaos.suite);
      ("obs", Test_obs.suite);
      ("report", Test_report.suite);
      ("warmstart", Test_warmstart.suite);
      ("activation", Test_activation.suite);
      ("schedule", Test_schedule.suite);
      ("inline", Test_inline.suite);
    ]
