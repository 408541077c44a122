module Circuit = Qxm_circuit.Circuit
module Qasm = Qxm_circuit.Qasm
module Coupling = Qxm_arch.Coupling
module Solver = Qxm_sat.Solver
module Proof = Qxm_sat.Proof
module Cnf = Qxm_encode.Cnf
module Pb = Qxm_encode.Pb
module Encoding = Qxm_exact.Encoding
module Strategy = Qxm_exact.Strategy
module Mapper = Qxm_exact.Mapper
module Portfolio = Qxm_exact.Portfolio

let ( let* ) = Result.bind

(* Re-prove "no model with F <= cost - 1" on a fresh logging solver,
   returning the trace, the single bound it enforced and the cap its PB
   circuit was built with (that same bound).  Used when the witness
   predates the final rung, so its own trace does not prove the bound. *)
let prove_bound ?deadline ~amo ~costs ~symmetry ~instance ~cost () =
  let solver = Solver.create () in
  Solver.enable_proof solver;
  let cnf = Cnf.create solver in
  let built = Encoding.build ~amo ~costs ~symmetry cnf instance in
  let bound = cost - 1 in
  let pb = Pb.build ~cap:bound cnf (Encoding.objective built) in
  Pb.enforce_at_most cnf pb bound;
  match Solver.solve ?deadline solver with
  | Solver.Unsat -> (
      match Solver.proof solver with
      | Some proof -> Ok (proof.Proof.steps, [ bound ], bound)
      | None -> Error "solver produced no trace")
  | Solver.Sat ->
      Error
        (Printf.sprintf
           "cost %d is not optimal for this instance: a cheaper model exists"
           cost)
  | Solver.Unknown -> Error "re-prove budget exhausted"

let build ?deadline ~device_name ~arch ~circuit ~strategy ~amo ~costs
    ~(elementary : Circuit.t) (w : Mapper.witness) =
  let cnot_list = Circuit.cnots circuit in
  let instance =
    {
      Encoding.arch = w.Mapper.w_sub_arch;
      num_logical = Circuit.num_qubits circuit;
      cnots = Array.of_list cnot_list;
      spots = Strategy.spots strategy cnot_list;
    }
  in
  let* proof_drup, bounds, pb_cap =
    if w.Mapper.w_cost = 0 then Ok ("", [], None)
    else
      match w.Mapper.w_proof with
      | Some proof ->
          Ok
            ( Proof.to_drup { proof with Proof.inputs = [] },
              w.Mapper.w_bounds,
              w.Mapper.w_pb_cap )
      | None ->
          (* Re-prove over the witness's own encoding flag: the recorded
             model must satisfy the clause stream the auditor re-derives,
             and the fresh proof's inputs must match it too. *)
          let* steps, bounds, cap =
            prove_bound ?deadline ~amo ~costs ~symmetry:w.Mapper.w_symmetry
              ~instance ~cost:w.Mapper.w_cost ()
          in
          Ok (Proof.to_drup { Proof.inputs = []; steps }, bounds, Some cap)
  in
  Ok
    {
      Certificate.original_qasm = Qasm.to_string circuit;
      device_name;
      device_qubits = Coupling.num_qubits arch;
      device_edges = Coupling.edges arch;
      subset = Array.to_list w.Mapper.w_back;
      strategy = Strategy.name strategy;
      amo = Certificate.amo_name amo;
      swap_weight = costs.Encoding.swap_weight;
      flip_weight = costs.Encoding.flip_weight;
      symmetry = w.Mapper.w_symmetry;
      claimed_cost = w.Mapper.w_cost;
      model = w.Mapper.w_model;
      bounds;
      pb_cap;
      proof_drup;
      init_full = w.Mapper.w_init_full;
      final_full = w.Mapper.w_final_full;
      mapped_qasm = Qasm.to_string w.Mapper.w_mapped_inst;
      elementary_qasm = Qasm.to_string elementary;
    }

let of_report ?deadline ~device_name ~arch ~circuit
    ~(options : Mapper.options) (r : Mapper.report) =
  if not r.Mapper.optimal then
    Error "report is not proven optimal; nothing to certify"
  else
    match r.Mapper.witness with
    | None ->
        Error
          "report carries no witness (run with options.certificate = true)"
    | Some w ->
        build ?deadline ~device_name ~arch ~circuit
          ~strategy:options.Mapper.strategy ~amo:options.Mapper.amo
          ~costs:options.Mapper.costs ~elementary:r.Mapper.elementary w

let of_portfolio ?deadline ~device_name ~arch ~circuit
    ~(options : Portfolio.options) (r : Portfolio.report) =
  if not r.Portfolio.optimal then
    Error "portfolio answer is not proven optimal; nothing to certify"
  else
    match r.Portfolio.witness with
    | None ->
        Error
          "portfolio report carries no witness (run with \
           options.exact.certificate = true)"
    | Some w ->
        let exact = options.Portfolio.exact in
        build ?deadline ~device_name ~arch ~circuit
          ~strategy:exact.Mapper.strategy ~amo:exact.Mapper.amo
          ~costs:exact.Mapper.costs ~elementary:r.Portfolio.elementary w
