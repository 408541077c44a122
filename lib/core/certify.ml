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
