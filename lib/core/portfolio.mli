(** Resilient portfolio mapper: staged exact solving, raced against
    SABRE while optimality is open.

    + The exact pipeline runs under an escalating conflict-limit ladder,
      each rung bounded by the best incumbent so far, on the whole
      wall-clock budget ({!Mapper.run} keeps its own reserve for
      reconstruction and verification).  A DP-seeded run
      ({!Mapper.seeded}) finds the optimum first and has only the proof
      left, so only the ladder's last rung runs.  A seeded candidate
      whose search finds no model answers with its DP routing.
    + Unless the exact lane proved its answer optimal, SABRE runs and
      the cheaper answer wins: SABRE is not bound to a strategy's
      permutation spots, so it can beat a restricted strategy's optimum.
    + Every answer must pass {!Certify.compliance} (and equivalence
      verification where feasible): it may be suboptimal, never invalid.

    The {!report} carries honest provenance and per-stage telemetry.
    {!Qxm_sat.Fault} schedules ([--inject] on the CLI) exercise the
    degradation paths deterministically. *)

type provenance =
  | Exact_optimal
      (** The exact pipeline finished and proved minimality for the
          requested strategy. *)
  | Exact_incumbent
      (** The returned circuit is a SAT model of the requested
          strategy's encoding, but optimality was not proven before the
          budget (or the caller's cancel token) stopped the ladder. *)
  | Dp_incumbent
      (** The returned circuit is the permutation DP's routing of the
          winning candidate, which no SAT model confirmed (wire string
          ["dp-incumbent"]): the SAT search faulted, was cancelled or was
          cut before its first model.  Never [optimal] and never
          certified, although the DP routing is the candidate's
          optimum. *)
  | Heuristic
      (** SABRE produced the returned circuit (wire string
          ["heuristic:sabre"]). *)

val provenance_string : provenance -> string

(** One pipeline stage's telemetry, in execution order. *)
type stage = {
  stage : string;  (** e.g. ["exact:4000"], ["exact:unlimited"], ["sabre"] *)
  spent : float;  (** wall-clock seconds consumed by the stage *)
  solves : int;  (** SAT solver calls made by the stage *)
  outcome : string;
      (** ["optimal"], ["incumbent F=…"], ["dp-incumbent F=…"],
          ["budget exhausted"], ["skipped: …"], ["rejected: …"],
          ["failed: …"], ["ok F=…"] *)
}

type options = {
  exact : Mapper.options;
      (** Options for the exact stages.  [timeout] is ignored ([budget]
          governs); [conflict_limit] is ignored (the ladder governs);
          [upper_bound] composes with incumbent seeding (the tighter
          bound wins). *)
  budget : float option;
      (** Total wall-clock budget, all of it the exact lane's: its
          deadline is the run's start plus [budget], and each rung's
          {!Mapper.run} keeps its own reserve (10 %, at most 1 s) for
          reconstruction and verification, which also covers the SABRE
          stage (milliseconds).  [None] (default) lets the final ladder
          rung run to completion, like the plain exact mapper. *)
  exact_budget : float option;
      (** Overrides the exact lane's share of [budget] when set.  [None]
          (default) gives it the whole [budget]; no entry point sets it,
          and it stays only so that record expressions listing every
          other field still compile. *)
  ladder : int list;
      (** Escalating per-solve conflict limits for the exact rungs,
          [-1] = unlimited (default [[4000; -1]]).  [[]] disables the
          exact stage entirely.  With a DP seed ({!Mapper.seeded} on
          [exact]) only the last rung runs: the cheaper rungs before it
          exist to find an incumbent, which the seed already is. *)
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
  notes : string list;
      (** Provenance qualifiers. ["deadline_expired"]: the exact
          deadline cut the pipeline (a rung was skipped for spent
          budget, or came back unproven or empty when the clock —
          possibly during the canonical winner re-solve of a race that
          could fan out — ran out; under a budget an unlimited rung
          can end no other way), so the returned answer is the
          certified incumbent rather than a finished proof.  ["cancelled"]: the
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
  | Disconnected of { logical : int; largest : int }
      (** as {!Mapper.Disconnected}: nothing can route the circuit, and
          no stage runs *)
  | Exhausted of stage list
      (** Every stage failed or was rejected, or the run was cancelled
          before any stage certified an answer; the telemetry says
          why. *)

val pp_failure : Format.formatter -> failure -> unit

val run :
  ?options:options ->
  ?cancel:Qxm_par.Cancel.t ->
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

    Each exact rung runs in a [portfolio.stage] span whose [stage]
    argument names it (e.g. ["exact:4000"]), around the {!Mapper.run}
    spans and instants it contains; the trace stream is the only live
    view of the run. *)
