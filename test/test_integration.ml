(* Cross-module integration tests: the full pipeline from QASM text
   through optimization, exact mapping, verification and back to QASM,
   plus the warm-start/pruning contract of the mapper. *)

open Test_util
module Circuit = Qxm_circuit.Circuit
module Gate = Qxm_circuit.Gate
module Qasm = Qxm_circuit.Qasm
module Optimize = Qxm_circuit.Optimize
module Unitary = Qxm_circuit.Unitary
module Mapper = Qxm_exact.Mapper
module Portfolio = Qxm_exact.Portfolio
module Strategy = Qxm_exact.Strategy
module Devices = Qxm_arch.Devices
module Suite = Qxm_benchmarks.Suite
module Examples = Qxm_benchmarks.Examples
module Generator = Qxm_benchmarks.Generator
module Algorithms = Qxm_benchmarks.Algorithms

let test_qasm_to_qasm_pipeline () =
  let source =
    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\ncx \
     q[0],q[2];\nt q[2];\ncx q[1],q[2];\ncx q[0],q[1];\n"
  in
  let circuit = Qasm.parse_string source in
  match Mapper.run ~arch:Devices.qx4 circuit with
  | Error e -> Alcotest.failf "mapping failed: %a" Mapper.pp_failure e
  | Ok r ->
      Alcotest.(check (option bool)) "verified" (Some true) r.verified;
      (* the emitted QASM must parse back to the same circuit *)
      let reparsed = Qasm.parse_string (Qasm.to_string r.elementary) in
      Alcotest.(check bool) "qasm roundtrip of mapped circuit" true
        (Circuit.equal r.elementary reparsed)

let test_upper_bound_at_optimum () =
  (* Fig. 1a has optimum 4: seeding at exactly 4 must still find it *)
  let options = { Mapper.default with upper_bound = Some 4 } in
  match Mapper.run ~options ~arch:Devices.qx4 Examples.fig1a with
  | Ok r ->
      Alcotest.(check int) "F = 4" 4 r.f_cost;
      Alcotest.(check bool) "optimal" true r.optimal
  | Error e -> Alcotest.failf "failed: %a" Mapper.pp_failure e

let test_upper_bound_below_optimum () =
  (* below the optimum the mapper must answer "nothing within bound" *)
  let options = { Mapper.default with upper_bound = Some 3 } in
  match Mapper.run ~options ~arch:Devices.qx4 Examples.fig1a with
  | Error (Mapper.Unmappable _) -> ()
  | Ok r -> Alcotest.failf "unexpected success with F = %d" r.f_cost
  | Error e -> Alcotest.failf "unexpected failure: %a" Mapper.pp_failure e

let test_optimize_then_map () =
  (* optimizing first never invalidates mapping; the mapped result of the
     optimized circuit must match the *optimized* original semantics *)
  let raw = Algorithms.grover ~marked:2 2 in
  let opt = Optimize.optimize raw in
  Alcotest.(check bool) "optimizer saved gates" true
    (Circuit.length opt < Circuit.length raw);
  match Mapper.run ~arch:Devices.qx4 opt with
  | Ok r -> Alcotest.(check (option bool)) "verified" (Some true) r.verified
  | Error e -> Alcotest.failf "failed: %a" Mapper.pp_failure e

let test_mapped_circuit_is_mappable_for_free () =
  (* a mapped circuit is already compliant: re-mapping costs F = 0 *)
  match Mapper.run ~arch:Devices.qx4 Examples.fig1a with
  | Error e -> Alcotest.failf "failed: %a" Mapper.pp_failure e
  | Ok r -> (
      match Mapper.run ~arch:Devices.qx4 r.elementary with
      | Ok r2 -> Alcotest.(check int) "free remap" 0 r2.f_cost
      | Error e -> Alcotest.failf "remap failed: %a" Mapper.pp_failure e)

let test_suite_benchmark_maps_and_verifies () =
  (* end-to-end over a real Table-1 benchmark with all strategies *)
  let e = Option.get (Suite.by_name "4mod5-v1_22") in
  List.iter
    (fun strategy ->
      let options =
        { Mapper.default with strategy; timeout = Some 60.0 }
      in
      match Mapper.run ~options ~arch:Devices.qx4 e.circuit with
      | Ok r ->
          Alcotest.(check (option bool))
            (Strategy.name strategy ^ " verified")
            (Some true) r.verified
      | Error err ->
          Alcotest.failf "%s failed: %a" (Strategy.name strategy)
            Mapper.pp_failure err)
    Strategy.all

let test_heuristics_agree_on_trivial () =
  (* a circuit that fits natively costs 0 for everyone *)
  let c = Circuit.create 2 [ Gate.Cnot (1, 0) ] in
  let exact = Result.get_ok (Mapper.run ~arch:Devices.qx4 c) in
  let stoch = Qxm_heuristic.Stochastic_swap.run ~arch:Devices.qx4 c in
  let sabre = Qxm_heuristic.Sabre.run ~arch:Devices.qx4 c in
  let portfolio = Result.get_ok (Portfolio.run ~arch:Devices.qx4 c) in
  Alcotest.(check int) "exact" 0 exact.f_cost;
  Alcotest.(check int) "stochastic" 0 stoch.f_cost;
  Alcotest.(check int) "sabre" 0 sabre.f_cost;
  Alcotest.(check int) "portfolio" 0 portfolio.f_cost

let all_mappers_agree_semantically =
  qtest ~count:10 "all four mappers produce equivalent circuits"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let c = Generator.random_circuit ~seed ~qubits:4 ~cnots:5 ~singles:3 in
      let exact =
        match Mapper.run ~arch:Devices.qx4 c with
        | Ok r -> r.verified = Some true
        | Error _ -> false
      in
      let stoch =
        (Qxm_heuristic.Stochastic_swap.run ~seed ~arch:Devices.qx4 c)
          .verified
        = Some true
      in
      let sabre =
        (Qxm_heuristic.Sabre.run ~arch:Devices.qx4 c).verified = Some true
      in
      let portfolio =
        match Portfolio.run ~arch:Devices.qx4 c with
        | Ok r -> r.verified = Some true
        | Error _ -> false
      in
      exact && stoch && sabre && portfolio)

let test_fig1a_qasm_file_roundtrip () =
  (* write → read → map: exercises the file layer *)
  let path = Filename.temp_file "qxm_test" ".qasm" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Qasm.write_file path Examples.fig1a;
      let c = Qasm.parse_file path in
      Alcotest.(check bool) "file roundtrip" true
        (Circuit.equal c Examples.fig1a))

let test_direction_sensitivity () =
  (* QX4 vs a fully bidirected QX4: the latter should never pay H costs,
     so its optimum is at most the former's *)
  let circuit = Examples.fig1a in
  let f arch =
    match Mapper.run ~arch circuit with
    | Ok r -> r.f_cost
    | Error _ -> max_int
  in
  let fw = f Devices.qx4 in
  let bi = f (Devices.all_fully_directed Devices.qx4) in
  Alcotest.(check bool) "bidirected is cheaper or equal" true (bi <= fw);
  Alcotest.(check int) "fig1a needs no swaps when bidirected" 0 bi

let suite =
  [
    ("qasm-to-qasm pipeline", `Quick, test_qasm_to_qasm_pipeline);
    ("upper bound at optimum", `Quick, test_upper_bound_at_optimum);
    ("upper bound below optimum", `Quick, test_upper_bound_below_optimum);
    ("optimize then map", `Quick, test_optimize_then_map);
    ("mapped circuit remaps free", `Quick,
     test_mapped_circuit_is_mappable_for_free);
    ("table1 benchmark all strategies", `Slow,
     test_suite_benchmark_maps_and_verifies);
    ("all mappers free on native circuit", `Quick,
     test_heuristics_agree_on_trivial);
    all_mappers_agree_semantically;
    ("qasm file roundtrip", `Quick, test_fig1a_qasm_file_roundtrip);
    ("direction sensitivity", `Quick, test_direction_sensitivity);
  ]
