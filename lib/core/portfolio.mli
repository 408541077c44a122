(** Resilient portfolio mapper: staged exact solving with graceful
    degradation to SABRE.

    The paper's exact formulation is NP-complete, so on large instances
    the optimizer's budgets (deadline, conflict limit) are routinely
    exhausted.  {!Mapper.run} alone then reports a bare [Timeout] even
    though the SABRE heuristic always produces *some* valid mapping on a
    connected device, fast.  This module turns the exact pipeline into
    the first stage of a budgeted portfolio:

    + the exact pipeline runs under an escalating conflict-limit ladder,
      each rung seeded with the best incumbent so far ([upper_bound]),
      inside the exact stage's share of the wall-clock budget; every
      solve starts at the permutation DP's optimal routing where that is
      tractable, so the first rung normally finds the optimum and the
      later ones only have to prove it;
    + on exhaustion the best SAT incumbent (the anytime
      {!Qxm_opt.Minimize.outcome} surfaced through {!Mapper.report}) is
      kept as a candidate and SABRE runs; the cheaper of the two is
      returned;
    + every candidate — exact or degraded — must pass
      {!Certify.compliance} (and equivalence verification where
      feasible) before it can be returned: a SABRE answer may be
      suboptimal, never invalid.

    The returned {!report} carries honest provenance, per-stage timings
    and budget-spend telemetry.  Degradation paths are exercised
    deterministically by arming {!Qxm_sat.Fault} schedules in the tests
    and via the [--inject] CLI knob. *)

type provenance =
  | Exact_optimal
      (** The exact pipeline finished and proved minimality for the
          requested strategy. *)
  | Exact_incumbent
      (** The returned circuit is a SAT model of the requested
          strategy's encoding, but optimality was not proven before the
          budget (or the caller's cancel token) stopped the ladder. *)
  | Heuristic
      (** SABRE produced the returned circuit (wire string
          ["heuristic:sabre"]). *)

val provenance_string : provenance -> string
val pp_provenance : Format.formatter -> provenance -> unit

(** One pipeline stage's telemetry, in execution order. *)
type stage = {
  stage : string;  (** e.g. ["exact:4000"], ["exact:unlimited"], ["sabre"] *)
  spent : float;  (** wall-clock seconds consumed by the stage *)
  solves : int;  (** SAT solver calls made by the stage *)
  outcome : string;
      (** ["optimal"], ["incumbent F=…"], ["budget exhausted"],
          ["skipped: …"], ["rejected: …"], ["failed: …"], ["ok F=…"] *)
}

type options = {
  exact : Mapper.options;
      (** Options for the exact stages.  [timeout] is ignored (the
          portfolio budgets below govern); [conflict_limit] is ignored
          (the ladder governs); [upper_bound] composes with incumbent
          seeding (the tighter bound wins). *)
  budget : float option;
      (** Total wall-clock budget.  [None] (default) lets the final
          ladder rung run to completion, like the plain exact mapper. *)
  exact_budget : float option;
      (** Explicit wall-clock budget for the ladder.  [None] (default)
          gives the exact stages 70% of [budget]; the remainder is the
          reserve for SABRE, reconstruction and verification. *)
  ladder : int list;
      (** Escalating per-solve conflict limits for the exact rungs,
          [-1] = unlimited (default [[4000; -1]]).  [[]] disables the
          exact stage entirely. *)
  jobs : int;
      (** Worker domains for the exact stages (default 1).  With
          [jobs > 1] every ladder rung runs on one shared
          [Qxm_par.Pool] of this width, handed to {!Mapper.run} for its
          sub-architecture candidate fan-out.  The stages still run one
          after another, so [jobs] never changes which stage runs. *)
}

val default : options

type report = {
  mapped : Qxm_circuit.Circuit.t;
  elementary : Qxm_circuit.Circuit.t;
  initial : int array;
  final : int array;
  f_cost : int;
  total_gates : int;
  provenance : provenance;
  optimal : bool;  (** [true] iff [provenance = Exact_optimal] *)
  verified : bool option;
      (** equivalence proof of the returned circuit, where feasible *)
  runtime : float;
  solves : int;  (** SAT solver calls across all stages *)
  stages : stage list;  (** telemetry, in execution order *)
  sat_stats : Qxm_sat.Solver.stats;
      (** Field-wise sum of the solver work of every ladder rung:
          {!Mapper.report.sat_stats} of the rungs that produced a
          report, and the stats carried by the [Timeout] and
          [Unmappable] failures of those that did not; the SABRE stage
          contributes nothing.  See [doc/PERFORMANCE.md] for how to read
          the counters. *)
  strategy_name : string;
      (** Name of the exact strategy actually targeted, after
          defaulting ({!Strategy.name} of [options.exact.strategy]). *)
  trajectory : (float * int) list;
      (** Objective trajectory merged over all exact stages: one
          [(seconds-since-start, cost)] entry per global incumbent
          improvement, time-ordered with strictly decreasing costs.
          Empty when no exact stage found a model. *)
  notes : string list;
      (** Provenance qualifiers. ["deadline_expired"]: the exact
          deadline cut the pipeline (a rung was skipped for spent
          budget, or came back unproven when the clock — possibly
          during the canonical winner re-solve of a race that could
          fan out — ran out), so the returned answer is the certified
          incumbent rather than a finished proof.  ["cancelled"]: the
          caller's supervisor token was cancelled during the run.  Empty
          for a run that finished inside its budgets. *)
  witness : Mapper.witness option;
      (** Raw optimality evidence from the winning exact stage, present
          iff the chosen answer came from the exact lane and
          [options.exact.certificate] was set.  [None] for heuristic
          answers — only exact results can witness optimality.  Note
          that on the "no improvement on incumbent" path the witness's
          own proof can predate the final rung; [Qxm_audit.Emit]
          re-proves the bound directly in that case. *)
}

type failure =
  | Too_many_logical of { logical : int; physical : int }
  | Exhausted of stage list
      (** Every stage failed or was rejected; the telemetry says why.
          With a connected architecture and a sane circuit this cannot
          happen: SABRE fails only on a device it cannot route. *)

val pp_failure : Format.formatter -> failure -> unit

val run :
  ?options:options ->
  ?cancel:Qxm_par.Cancel.t ->
  ?on_progress:(Mapper.progress -> unit) ->
  arch:Qxm_arch.Coupling.t ->
  Qxm_circuit.Circuit.t ->
  (report, failure) result
(** Map [circuit] onto [arch] with graceful degradation.  Never raises
    on engine failures (they become [stages] telemetry); the input
    contract is the same as {!Mapper.run}'s (no SWAP gates).

    [?cancel] is a supervisor token (e.g. a daemon watchdog's): every
    exact solve polls it via [Solver.set_stop], and the pipeline checks
    it between stages, so cancelling it stops a running solve promptly
    and skips the remaining stages.  The run then returns the best
    certified candidate found so far (with a ["cancelled"] note), or
    [Exhausted] when nothing was certified yet.

    [?on_progress] receives the exact stages' live progress samples with
    [p_phase] set to the portfolio stage name (e.g. ["exact:4000"]) and
    [p_elapsed] rebased to this call's start.  Same thread-safety
    contract as {!Mapper.run}'s [?on_progress]. *)
