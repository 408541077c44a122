(* Tests for the heuristic baselines: Layout, Stochastic_swap. *)

open Test_util
module Layout = Qxm_heuristic.Layout
module Stochastic = Qxm_heuristic.Stochastic_swap
module Circuit = Qxm_circuit.Circuit
module Gate = Qxm_circuit.Gate
module Coupling = Qxm_arch.Coupling
module Devices = Qxm_arch.Devices
module Examples = Qxm_benchmarks.Examples
module Generator = Qxm_benchmarks.Generator

(* -- Layout -------------------------------------------------------------- *)

let test_layout_identity () =
  let l = Layout.identity ~logical:3 ~physical:5 in
  Alcotest.(check int) "phys of 2" 2 (Layout.phys_of l 2);
  Alcotest.(check int) "log at 1" 1 (Layout.log_at l 1);
  Alcotest.(check int) "extra position" (-1) (Layout.log_at l 4)

let test_layout_swap () =
  let l = Layout.identity ~logical:2 ~physical:3 in
  Layout.swap_physical l 0 2;
  Alcotest.(check int) "moved" 2 (Layout.phys_of l 0);
  Alcotest.(check int) "extra moved in" 0
    (match Layout.log_at l 0 with -1 -> 0 | _ -> 1);
  Alcotest.(check (array int)) "snapshot" [| 2; 1 |] (Layout.to_array l);
  Alcotest.(check (array int)) "full" [| 2; 1; 0 |]
    (Layout.full_positions l)

let test_layout_copy_isolated () =
  let l = Layout.identity ~logical:2 ~physical:2 in
  let l' = Layout.copy l in
  Layout.swap_physical l' 0 1;
  Alcotest.(check int) "original untouched" 0 (Layout.phys_of l 0)

let layout_random_is_bijection =
  qtest ~count:100 "random layouts are bijections"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let l = Layout.random rng ~logical:4 ~physical:6 in
      let full = Layout.full_positions l in
      List.sort_uniq compare (Array.to_list full)
      = List.init 6 Fun.id)

(* -- Stochastic swap ------------------------------------------------------ *)

let test_stochastic_fig1a () =
  let r = Stochastic.run_best ~arch:Devices.qx4 Examples.fig1a in
  Alcotest.(check (option bool)) "verified" (Some true) r.verified;
  Alcotest.(check bool) "at least the exact optimum" true (r.f_cost >= 4);
  List.iter
    (fun g ->
      match g with
      | Gate.Cnot (c, t) ->
          Alcotest.(check bool) "compliant" true
            (Coupling.allows Devices.qx4 c t)
      | Gate.Swap _ -> Alcotest.fail "swap in elementary output"
      | _ -> ())
    (Circuit.gates r.elementary)

let test_stochastic_deterministic_given_seed () =
  let r1 = Stochastic.run ~seed:7 ~arch:Devices.qx4 Examples.fig1a in
  let r2 = Stochastic.run ~seed:7 ~arch:Devices.qx4 Examples.fig1a in
  Alcotest.(check bool) "same circuit" true
    (Circuit.equal r1.mapped r2.mapped)

let test_stochastic_rejects_oversized () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Stochastic.run ~arch:(Devices.line 2) (Circuit.empty 3));
       false
     with Invalid_argument _ -> true)

let stochastic_always_verifies =
  qtest ~count:20 "stochastic mapping verifies on random circuits"
    QCheck2.Gen.(
      let* seed = int_range 0 10_000 in
      let* qubits = int_range 2 5 in
      return (seed, qubits))
    (fun (seed, qubits) ->
      let c = Generator.random_circuit ~seed ~qubits ~cnots:8 ~singles:4 in
      let r = Stochastic.run ~seed ~arch:Devices.qx4 c in
      r.verified = Some true)

let stochastic_works_on_other_devices =
  qtest ~count:10 "stochastic mapping verifies on line and ring"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let c = Generator.random_circuit ~seed ~qubits:4 ~cnots:6 ~singles:2 in
      let line = Stochastic.run ~seed ~arch:(Devices.line 5) c in
      let ring = Stochastic.run ~seed ~arch:(Devices.ring 5) c in
      line.verified = Some true && ring.verified = Some true)

let suite =
  [
    ("layout identity", `Quick, test_layout_identity);
    ("layout swap", `Quick, test_layout_swap);
    ("layout copy isolated", `Quick, test_layout_copy_isolated);
    layout_random_is_bijection;
    ("stochastic fig1a", `Quick, test_stochastic_fig1a);
    ("stochastic deterministic by seed", `Quick,
     test_stochastic_deterministic_given_seed);
    ("stochastic rejects oversized", `Quick,
     test_stochastic_rejects_oversized);
    stochastic_always_verifies;
    stochastic_works_on_other_devices;
  ]
