module Solver = Qxm_sat.Solver
module Proof = Qxm_sat.Proof
module Cnf = Qxm_encode.Cnf
module Pb = Qxm_encode.Pb
module Minimize = Qxm_opt.Minimize
module Circuit = Qxm_circuit.Circuit
module Gate = Qxm_circuit.Gate
module Coupling = Qxm_arch.Coupling

let compliance ~arch circuit =
  let m = Coupling.num_qubits arch in
  let in_range q = q >= 0 && q < m in
  let exception Reject of string in
  try
    if Circuit.num_qubits circuit > m then
      raise
        (Reject
           (Printf.sprintf "circuit spans %d wires, device has %d"
              (Circuit.num_qubits circuit) m));
    List.iteri
      (fun i g ->
        let reject fmt =
          Printf.ksprintf (fun s -> raise (Reject (Printf.sprintf "gate %d: %s" i s))) fmt
        in
        match g with
        | Gate.Single (_, q) ->
            if not (in_range q) then reject "qubit %d out of range" q
        | Gate.Barrier qs ->
            List.iter
              (fun q -> if not (in_range q) then reject "qubit %d out of range" q)
              qs
        | Gate.Swap (a, b) ->
            reject "undischarged SWAP %d,%d in elementary circuit" a b
        | Gate.Cnot (c, t) ->
            if not (in_range c && in_range t) then
              reject "CNOT %d,%d out of range" c t
            else if not (Coupling.allows arch c t) then
              reject "CNOT %d,%d violates the coupling map" c t)
      (Circuit.gates circuit);
    Ok ()
  with Reject message -> Error message

(* The objective value the emitted (pre-decomposition) circuit actually
   realizes: one [swap_weight] per SWAP gate, one [flip_weight] per CNOT
   that runs against the coupling direction.  This is the cost a model
   with exactly the circuit's placements and no gratuitous cost bits
   achieves, so it is always a sound [upper_bound] for a later exact run
   on the same instance. *)
let objective_of_mapped ~costs ~arch circuit =
  List.fold_left
    (fun acc g ->
      match g with
      | Gate.Swap _ -> acc + costs.Encoding.swap_weight
      | Gate.Cnot (c, t) when not (Coupling.allows arch c t) ->
          acc + costs.Encoding.flip_weight
      | _ -> acc)
    0 (Circuit.gates circuit)

type outcome =
  | Certified of Proof.t
  | Better_exists of int
  | Proof_rejected of string
  | Budget_exhausted

let optimality ?amo ?costs ?(deadline = 0.0) ~instance ~cost () =
  let solver =
    Solver.create ~capacity:(Encoding.var_capacity_hint instance) ()
  in
  Solver.enable_proof solver;
  let cnf = Cnf.create solver in
  let built = Encoding.build ?amo ?costs cnf instance in
  let objective = Encoding.objective built in
  if cost <= 0 then
    (* every objective value is >= 0, so 0 is trivially a lower bound;
       certify with a vacuous trace (empty clause among the inputs makes
       the checker accept it) *)
    Certified { Proof.inputs = [ [||] ]; steps = [ Proof.Learn [||] ] }
  else begin
    (* bound F <= cost - 1; with an empty objective every solution costs
       0 < cost, so no bounding clause is needed and the certificate can
       only come from the instance itself being unsatisfiable *)
    if objective <> [] then begin
      let pb = Pb.build ~cap:(cost - 1) cnf objective in
      Pb.enforce_at_most cnf pb (cost - 1)
    end;
    match Solver.solve ~deadline solver with
    | Solver.Sat ->
        let model = Solver.model solver in
        Better_exists (Minimize.cost_of_model objective model)
    | Solver.Unknown -> Budget_exhausted
    | Solver.Unsat -> (
        match Solver.proof solver with
        | None -> Proof_rejected "proof logging produced no trace"
        | Some proof -> (
            match Proof.check proof with
            | Proof.Valid -> Certified proof
            | Proof.Invalid _ as v ->
                Proof_rejected (Format.asprintf "%a" Proof.pp_verdict v)))
  end
