(** Test-suite entry point. *)

let () =
  Alcotest.run "flux"
    [
      Test_smt.tests;
      Test_cert.tests;
      Test_fixpoint.tests;
      Test_syntax.tests;
      Test_mir.tests;
      Test_rtype.tests;
      Test_check.tests;
      Test_wp.tests;
      Test_interp.tests;
      Test_loc.tests;
      Test_soundness.tests;
      Test_soundness.divmod_tests;
      Test_workloads.tests;
      Test_engine.tests;
      Test_incremental.tests;
      Test_analysis.tests;
      Test_absint.tests;
      Test_fuzz.tests;
      Test_server.tests;
      Test_golden.tests;
    ]
