(* Compare the paper's permutation strategies (Secs. 3 and 4.2) on a
   benchmark circuit: cost, |G'|, runtime, and optimality, side by side
   with the Qiskit-style heuristic baseline.

   Run with:  dune exec examples/compare_strategies.exe [benchmark]
   (default benchmark: ham3_102) *)

module Mapper = Qxm_exact.Mapper
module Strategy = Qxm_exact.Strategy
module Suite = Qxm_benchmarks.Suite
module Circuit = Qxm_circuit.Circuit
module Devices = Qxm_arch.Devices

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "ham3_102" in
  let entry =
    match Suite.by_name name with
    | Some e -> e
    | None ->
        Printf.eprintf "unknown benchmark %s; available:\n  %s\n" name
          (String.concat "\n  " Suite.names);
        exit 2
  in
  let circuit = entry.circuit in
  let arch = Devices.qx4 in
  Printf.printf "benchmark %s: %d qubits, %d single-qubit gates + %d CNOTs\n\n"
    name (Circuit.num_qubits circuit)
    (Circuit.count_singles circuit)
    (Circuit.count_cnots circuit);
  Printf.printf "%-10s %5s %6s %6s %9s %9s\n" "strategy" "|G'|" "F" "gates"
    "time[s]" "status";
  let fmin = ref max_int in
  List.iter
    (fun strategy ->
      let options =
        { Mapper.default with strategy; timeout = Some 120.0 }
      in
      match Mapper.run ~options ~arch circuit with
      | Ok r ->
          if r.optimal && strategy = Strategy.Minimal then fmin := r.f_cost;
          Printf.printf "%-10s %5d %6d %6d %9.2f %9s\n"
            (Strategy.name strategy) r.reported_gprime r.f_cost
            r.total_gates r.runtime
            (if r.optimal then "optimal" else "best-found")
      | Error e ->
          Format.printf "%-10s %a@." (Strategy.name strategy)
            Mapper.pp_failure e)
    Strategy.all;
  let stoch =
    Qxm_heuristic.Stochastic_swap.run_best ~times:5 ~arch circuit
  in
  Printf.printf "%-10s %5s %6d %6d %9s %9s\n" "ibm-style" "-" stoch.f_cost
    stoch.total_gates "-" "heuristic";
  if !fmin < max_int && !fmin > 0 then
    Printf.printf
      "\nheuristic overhead vs the exact minimum: ibm-style +%.0f%%\n"
      (100.0 *. (float_of_int stoch.f_cost /. float_of_int !fmin -. 1.0))
