(** DRUP-style unsatisfiability certificates.

    When proof logging is enabled on a {!Solver}, every learnt clause is
    recorded, and clause deletions performed by the solver (database
    reduction) are recorded as {!Delete} steps; a run that ends in
    [Unsat] (without assumptions) finishes with the empty clause.  Such a trace is checkable by *reverse unit
    propagation* against the original clauses alone: each learnt clause C
    must yield a conflict when ¬C is asserted and unit propagation runs
    over the live clauses seen so far.  A checked trace certifies
    unsatisfiability — and therefore certifies the optimality claims of
    the mapper, whose final step is an UNSAT answer to "is there a
    mapping with cost ≤ F* − 1?". *)

type step =
  | Learn of Lit.t array
      (** A clause the solver claims is implied (RUP); the empty clause
          concludes the proof. *)
  | Delete of Lit.t array
      (** The solver dropped this clause; the checker removes it from
          the live set, keeping propagation per step near the solver's
          own.  Deleting a clause never affects soundness — only checker
          speed — so deletions of unknown clauses are ignored, and
          deletions of clauses currently acting as the reason for a
          top-level unit are skipped (mirroring how the solver never
          logs the deletion of a clause satisfied at level 0). *)

type t = { inputs : Lit.t array list; steps : step list }
(** Original clauses (in addition order) and the learnt/deleted trace. *)

type verdict =
  | Valid
  | Invalid of { step_index : int; reason : string }

val default_max_steps : int
(** Step budget used when [check]/[check_backward] is called without an
    explicit [max_steps].  Generous (millions of steps) but finite, so a
    runaway or adversarial trace cannot hang an auditor. *)

val check : ?max_steps:int -> t -> verdict
(** Replay the trace with counter-based unit propagation over the live
    clause set.  [Valid] iff every learnt clause is RUP and the trace
    ends with the empty clause.  Propagation is incremental: top-level
    units persist across steps instead of being re-propagated per step.
    [max_steps] defaults to {!default_max_steps}. *)

type core = {
  trimmed : t;  (** needed inputs and [Learn] steps only, in order *)
  core_inputs : int;  (** inputs referenced by the derivation of [] *)
  core_steps : int;  (** learnt clauses referenced by it *)
  total_inputs : int;
  total_steps : int;  (** [Learn] steps in the original trace *)
}
(** Result of a backward check: the sub-proof actually needed to derive
    the empty clause.  [trimmed] is itself a valid proof (it passes
    {!check}) containing [core_inputs] of the [total_inputs] original
    clauses and [core_steps] of the [total_steps] learnt clauses. *)

val check_backward : ?max_steps:int -> t -> (core, verdict) result
(** Forward RUP replay recording, for every accepted step, the set of
    clauses its conflict derivation touched (conflict clause plus the
    reason chain of every propagated literal involved); then a backward
    sweep from the empty clause marks the transitively needed steps and
    inputs.  [Error v] carries the same verdict {!check} would give on
    an invalid or incomplete trace. *)

val pp_verdict : Format.formatter -> verdict -> unit

val to_drup : t -> string
(** The trace in textual DRUP format: one step per line,
    DIMACS-encoded literals, 0-terminated; deletions are prefixed with
    ["d "]. *)

val of_drup : string -> (step list, string) result
(** Parse the textual DRUP format produced by {!to_drup} (also accepts
    blank lines and ["c ..."] comment lines).  Inverse of {!to_drup} on
    the steps of a trace: [of_drup (to_drup { inputs; steps }) = Ok steps]. *)
