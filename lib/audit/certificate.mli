(** Self-contained optimality certificates (format ["QXMCERT1"]).

    A certificate bundles everything an offline auditor needs to
    re-validate a mapping answer without trusting — or talking to — the
    process that produced it: the original circuit, the device, the
    chosen sub-architecture instance, the claimed cost F*, the
    satisfying model witnessing F*, the bound ladder enforced on the
    pseudo-Boolean objective, and the solver's deletion-aware DRUP
    trace for the final "no model with F ≤ F*−1" UNSAT answer.

    The encoding itself is deliberately {e not} stored: the auditor
    re-derives it from the circuit, device, strategy, AMO scheme and
    cost model, so a forged certificate cannot smuggle in a weaker
    clause set.  See [doc/CERTIFICATES.md] for the format and the
    threat model. *)

type t = {
  original_qasm : string;  (** the logical input circuit, OpenQASM *)
  device_name : string;  (** informational; the edge list is authoritative *)
  device_qubits : int;
  device_edges : (int * int) list;  (** directed coupling edges *)
  subset : int list;
      (** ascending device qubits forming the solved sub-architecture;
          position [i] of the instance is device qubit [List.nth subset i] *)
  strategy : string;  (** {!Qxm_exact.Strategy.name} *)
  amo : string;  (** {!amo_name} of the AMO scheme used by the encoding *)
  swap_weight : int;
  flip_weight : int;
  symmetry : bool;
      (** whether the producing encoding included lex-leader
          symmetry-breaking constraints; the auditor re-derives the
          encoding with the same flag so the proof replays against the
          exact clause stream.  Symmetry clauses are model-restricting
          but optimum-preserving, so the claimed F* means the same thing
          either way.  Missing in pre-symmetry certificates → [false]. *)
  claimed_cost : int;  (** F*, in the units of the cost model *)
  model : bool array;
      (** satisfying model over the re-derived encoding's variables
          (may extend past them into objective-circuit variables) *)
  bounds : int list;
      (** bounds permanently enforced on the PB circuit, in call order;
          replaying them reproduces the proof's input clauses *)
  pb_cap : int option;
      (** the cap the producer built the PB circuit with
          ({!Qxm_encode.Pb.build}); the auditor rebuilds it with the same
          cap before replaying [bounds].  Missing in certificates that
          predate capped circuits → [None], an uncapped circuit. *)
  proof_drup : string;
      (** deletion-aware DRUP trace ({!Qxm_sat.Proof.to_drup}) of the
          final UNSAT rung; [""] iff [claimed_cost = 0] (a zero bound
          needs no proof: weights are positive) *)
  init_full : int array;  (** wire → instance position, before/after *)
  final_full : int array;  (** the circuit (idle extras included) *)
  mapped_qasm : string;
      (** mapped circuit in instance space, with explicit SWAP gates *)
  elementary_qasm : string;
      (** device-space circuit after decomposition — the deliverable *)
}

val format_id : string
(** ["QXMCERT1"]. *)

val amo_name : Qxm_encode.Amo.encoding -> string
val amo_of_name : string -> Qxm_encode.Amo.encoding option

val to_json : t -> Qxm_json.Sjson.t
val of_json : Qxm_json.Sjson.t -> (t, string) result

val to_string : t -> string
(** Compact one-object JSON rendering of {!to_json}. *)

val of_string : string -> (t, string) result
(** Parse and structurally validate a certificate; rejects unknown
    [format] values and missing or ill-typed fields with a one-line
    reason.  Semantic validation is {!Auditor.run}'s job. *)
