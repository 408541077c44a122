let () =
  Alcotest.run "ibm_qx_mapping"
    [
      ("sat", Test_sat.suite);
      ("solver_perf", Test_solver_perf.suite);
      ("encode", Test_encode.suite);
      ("opt", Test_opt.suite);
      ("circuit", Test_circuit.suite);
      ("qasm", Test_qasm.suite);
      ("arch", Test_arch.suite);
      ("benchmarks", Test_benchmarks.suite);
      ("exact", Test_exact.suite);
      ("dp", Test_dp.suite);
      ("heuristic", Test_heuristic.suite);
      ("extensions", Test_extensions.suite);
      ("integration", Test_integration.suite);
      ("proof", Test_proof.suite);
      ("costmodel", Test_costmodel.suite);
      ("robustness", Test_robustness.suite);
      ("lint", Test_lint.suite);
      ("par", Test_par.suite);
      ("obs", Test_obs.suite);
      ("prof", Test_prof.suite);
      ("svc", Test_svc.suite);
      ("audit", Test_audit.suite);
    ]
