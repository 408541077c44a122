(** Solver-free checks on a mapped circuit: coupling compliance and the
    objective value it realizes.

    Optimality is certified elsewhere: the mapper's minimality claim
    boils down to one UNSAT answer ("no valid mapping with objective
    value ≤ F* − 1"), which [Qxm_audit.Emit] captures as a DRUP trace in
    a self-contained certificate and [qxm_audit] re-checks offline. *)

val compliance :
  arch:Qxm_arch.Coupling.t -> Qxm_circuit.Circuit.t -> (unit, string) result
(** Structural validity of an elementary (post-decomposition) circuit:
    every qubit index on the device, every CNOT on a directed coupling
    edge, no SWAP gates left.  This is the certificate layer every
    portfolio result — exact or degraded — must pass before being
    returned; it involves no SAT solving, so it stays available under
    fault injection and budget exhaustion. *)

val objective_of_mapped :
  costs:Encoding.cost_model ->
  arch:Qxm_arch.Coupling.t ->
  Qxm_circuit.Circuit.t ->
  int
(** The objective value (Eq. 5, in the units of [costs]) realized by a
    mapped circuit that still carries explicit SWAP gates: [swap_weight]
    per SWAP plus [flip_weight] per CNOT placed against the coupling
    direction.  Because an anytime model may set cost-ladder or switching
    bits that the reconstructed circuit never pays for, this is the
    honest — and still sound — cost to report and to seed a later run's
    [upper_bound] with. *)
