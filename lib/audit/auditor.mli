(** Independent offline auditor for {!Certificate} artifacts.

    [run] statically re-validates an optimality claim from the
    certificate alone: it re-derives the CNF encoding from the circuit,
    device, strategy and cost model (never trusting clauses shipped in
    the artifact), evaluates the model against it, recounts the
    objective, replays the DRUP trace with a backward RUP check, and
    re-checks the mapped circuit itself (decomposition, coupling
    compliance, objective recount, unitary equivalence).

    Findings are reported as {!Qxm_lint.Diagnostic} values with stable
    [QA-*] codes, catalogued in [doc/LINT.md]:

    - [QA-E001] — a bundled QASM program does not parse;
    - [QA-E002] — the instance is invalid (device, subset, strategy,
      AMO scheme, cost model, placement maps, or a [pb_cap] below a
      recorded bound);
    - [QA-E003] — the model is malformed or falsifies the re-derived
      encoding;
    - [QA-E004] — the claimed cost is inflated (the model witnesses a
      cheaper objective value);
    - [QA-E005] — the model does not achieve the claimed cost;
    - [QA-E006] — the DRUP trace does not parse;
    - [QA-E007] — a proof step is not RUP;
    - [QA-E008] — the proof does not derive the empty clause;
    - [QA-E009] — the proof replay exceeded the step budget;
    - [QA-E010] — the elementary circuit is not the decomposition of
      the mapped circuit;
    - [QA-E011] — the elementary circuit violates the device coupling;
    - [QA-E012] — the mapped circuit does not realize the claimed cost;
    - [QA-E013] — the mapped circuit is not equivalent to the original;
    - [QA-E014] — the proved bound leaves a gap below the claimed cost;
    - [QA-I101] — informational: trimmed-core statistics;
    - [QA-I102] — informational: equivalence skipped (instance too
      large to simulate). *)

type report = {
  diagnostics : Qxm_lint.Diagnostic.t list;
      (** sorted errors-first ({!Qxm_lint.Diagnostic.by_severity}) *)
  ok : bool;  (** [true] iff no [Error]-severity diagnostic was raised *)
  core : Qxm_sat.Proof.core option;
      (** trimmed proof core, when the DRUP replay succeeded *)
}

val run :
  ?max_steps:int -> ?equiv_max_qubits:int -> Certificate.t -> report
(** Audit one certificate.  [max_steps] bounds the proof replay
    (default {!Qxm_sat.Proof.default_max_steps}); [equiv_max_qubits]
    bounds the unitary-equivalence simulation (default 10; larger
    instances get [QA-I102] instead of a verdict). *)

val audit_string :
  ?max_steps:int -> ?equiv_max_qubits:int -> string -> report
(** Parse a JSON certificate and {!run} it; parse failures become a
    single [QA-E001] diagnostic. *)
