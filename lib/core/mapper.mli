(** The exact mapper: end-to-end pipeline from a logical circuit to a
    coupling-compliant physical circuit with minimal (or strategy-bounded)
    SWAP/H cost.

    Pipeline: extract the CNOT skeleton (Fig. 1b) → choose permutation
    spots per {!Strategy} → encode ({!Encoding}) → minimize Eq. (5) by
    linear descent ({!Qxm_opt.Minimize}) → reconstruct the mapped circuit by replaying the
    original gate list with SWAP chains at permutation spots and H-flips
    on direction-violating CNOTs → optionally prove equivalence by
    unitary simulation. *)

type options = {
  strategy : Strategy.t;
  use_subsets : bool;
      (** Sec. 4.1: solve one square instance per connected physical-qubit
          subset instead of one instance on the whole device. *)
  timeout : float option;
      (** Wall-clock seconds for the whole call.  A slice of it (10%,
          at most one second) is reserved for reconstruction and
          verification, so the SAT stages stop slightly earlier and a
          late incumbent still yields a complete report. *)
  conflict_limit : int;
      (** Per-solve-call conflict budget handed to the optimizer
          ([-1] = unlimited).  The portfolio layer uses this as its
          escalation ladder; exhausting it yields an anytime incumbent
          ([optimal = false]) or [Timeout] when no model was found. *)
  amo : Qxm_encode.Amo.encoding;
  verify : bool;
      (** Check the mapped circuit against the original by full unitary
          simulation (exact, feasible for the instance sizes of the
          paper). *)
  upper_bound : int option;
      (** Only look for mappings with F at most this value — a warm start
          when a solution of known cost exists (e.g. the subset method's
          result seeding the full-device run, or a heuristic mapper's
          cost).  With a bound below the true optimum, [run] reports
          [Unmappable], which then means "nothing within the bound".
          The bound is expressed in the units of [costs]. *)
  costs : Encoding.cost_model;
      (** Objective weights (default {!Encoding.paper_costs}, i.e. 7 per
          SWAP and 4 per switched CNOT).  [report.f_cost] always counts
          elementary gates regardless; custom weights change what is
          *optimized*, e.g. (1, 1) minimizes the number of insertions. *)
  jobs : int;
      (** Worker domains for the candidate fan-out (one per connected
          subset).  [1] runs candidates inline in index order — the
          sequential path; higher values race them on a
          [Qxm_par.Pool].  Whatever the interleaving, the report is
          deterministic: the shared incumbent breaks cost ties by
          candidate index and, when the race can fan out, the winner's
          model is re-derived canonically (see [doc/PARALLEL.md]).
          Ignored when a [?pool] is supplied; clamped to 1 while a
          {!Qxm_sat.Fault} schedule is armed, and when the instance is
          trivially small (a single candidate, or an encoding cheap
          enough that domain spin-up would dominate the solve).  Such a
          race is the same inline scan at every [jobs] value, so it
          keeps its own winning model and skips the re-solve. *)
  incumbent_pruning : bool;
      (** Cap each candidate's search with the best cost published so
          far (on by default).  A capped UNSAT means "cannot beat the
          incumbent", so the minimum over candidates is unchanged;
          switching this off exists for the property test proving
          exactly that, and to measure the pruning's effect. *)
  warm_start : bool;
      (** Seed each candidate's SAT search with its optimal routing
          from the permutation DP ({!Dp_exact}; on by default).  When the
          DP cost fits the bound the candidate already runs under, the
          routing's literals ({!Encoding.routing_assumptions}) are the
          assumptions of the first solve, which then finds the
          candidate's optimum at almost no search cost, leaving the
          descent one refutation.  A refuted seed falls back to the
          plain solve.  The DP's cost is never enforced as a bound, so
          every [optimal] claim and certificate rests on the SAT proof
          alone; turning this off recovers the cold solver for
          measurement. *)
  certificate : bool;
      (** Record the raw evidence needed for an offline optimality
          certificate (off by default): every solver this call creates
          logs a DRUP trace, and the report carries a {!witness} with
          the winning instance, model, enforced bounds and final-rung
          proof.  [Qxm_audit.Emit] turns a witnessed report into a
          self-contained certificate file.  Logging costs memory
          proportional to the learnt-clause traffic, so leave this off
          for latency-sensitive paths. *)
  symmetry : bool;
      (** Add lex-leader symmetry-breaking constraints over the
          initial-layout block, one per coupling-graph automorphism (on
          by default; see {!Encoding.build}).  Effective under the
          [Minimal] strategy; model-restricting but optimum-preserving,
          so only the witness model can change, never the cost.  The
          witness records whether the winning encoding carried the
          clauses ([w_symmetry]) so certificates replay against the
          same formula. *)
}

val default : options
(** Minimal strategy, subsets on, no timeout, unlimited conflicts,
    sequential AMO, verification on, incumbent pruning on, warm starts
    on, symmetry breaking on, and [jobs] from the [QXM_JOBS] environment
    variable (default 1). *)

(** {2 Ladder sessions}

    A {!session} carries each candidate's solver, encoding, warm-start
    seed and minimization state across several {!run} calls, so a
    conflict-limit ladder (the portfolio's escalation rungs) resumes
    the previous rung's descent — learnt clauses, saved phases and
    VSIDS activity intact — instead of re-encoding from scratch.
    Reuse requires the same architecture, circuit and ladder-compatible
    options (same strategy, AMO scheme, cost model, seed, …; only
    budgets and bounds may differ between rungs) — an incompatible call
    silently bypasses the session and runs fresh.  Sessions pin solver
    memory until dropped. *)

type session

val new_session : unit -> session
(** Fresh (empty) session state for threading through {!run}. *)

(** Raw optimality evidence carried by a report when
    [options.certificate] was set: everything instance-local an offline
    auditor needs to re-derive the encoding and replay the proof.
    Positions refer to the winning candidate sub-architecture
    ([w_sub_arch]); [w_back] maps them to device qubits. *)
type witness = {
  w_sub_arch : Qxm_arch.Coupling.t;
  w_back : int array;  (** instance position → device qubit, ascending *)
  w_model : bool array;  (** satisfying model over the instance encoding *)
  w_cost : int;  (** the model's objective value — the claimed F* *)
  w_mapped_inst : Qxm_circuit.Circuit.t;
      (** mapped circuit in instance space, with explicit SWAPs *)
  w_init_full : int array;  (** full wire → position maps (idle extras *)
  w_final_full : int array;  (** included), before/after the circuit *)
  w_proof : Qxm_sat.Proof.t option;
      (** DRUP trace of the final UNSAT rung ("no model with F ≤ last
          enforced bound"); [None] when the optimizer never reached an
          UNSAT answer (cost 0). *)
  w_bounds : int list;
      (** bounds permanently enforced on the PB circuit, in call order
          ({!Qxm_opt.Minimize.outcome.bounds} of the winning solve) —
          cumulative over the whole minimization session when the
          winning solve resumed one, so replaying them reproduces the
          exact input stream of the long-lived solver *)
  w_pb_cap : int option;
      (** the cap the PB circuit was built with
          ({!Qxm_opt.Minimize.outcome.pb_cap}); [w_bounds] replays only
          on a circuit rebuilt with the same cap *)
  w_symmetry : bool;
      (** the winning encoding carried the lex-leader symmetry-breaking
          clauses; the auditor must re-derive the formula with the same
          flag for models and proofs to replay *)
}

type report = {
  mapped : Qxm_circuit.Circuit.t;
      (** Device-space circuit with explicit SWAP gates. *)
  elementary : Qxm_circuit.Circuit.t;
      (** Device-space circuit after Fig. 3 decompositions: only
          single-qubit gates and coupling-compliant CNOTs. *)
  initial : int array;  (** logical qubit → physical qubit, at the start *)
  final : int array;  (** logical qubit → physical qubit, at the end *)
  f_cost : int;  (** Eq. (5): 7·#SWAPs + 4·#switched CNOTs *)
  objective_cost : int;
      (** The objective value (Eq. 5, in the units of [costs]) realized
          by [mapped] — computed from the emitted circuit itself
          ({!Certify.objective_of_mapped}), not from the raw model,
          whose cost bits can overshoot on anytime (deadline-cut)
          descents.  Under {!Encoding.paper_costs} it upper-bounds
          [f_cost]; it is the sound warm-start value for a later run's
          [upper_bound] (e.g. the portfolio's escalation rungs). *)
  total_gates : int;  (** Table 1's c: gate count of [elementary] *)
  optimal : bool;  (** proven minimal for the chosen strategy *)
  runtime : float;  (** seconds *)
  reported_gprime : int;  (** Table 1's |G'| (permutation points) *)
  subsets_tried : int;
  solves : int;  (** SAT solver calls *)
  verified : bool option;  (** [Some true] iff simulation proved equality *)
  workers : int;
      (** Worker domains actually used for the candidate race:
          [min jobs subsets_tried], at least 1. *)
  pruned_by_incumbent : int;
      (** Candidates whose search came back UNSAT under a bound supplied
          by the shared incumbent — i.e. sub-instances the
          branch-and-bound race discharged without finding their own
          optimum.  Candidates after an F = 0 winner count here too:
          they are discharged without being encoded. *)
  sat_stats : Qxm_sat.Solver.stats;
      (** Field-wise sum of the solver statistics of every SAT search
          this call ran (all candidates, including pruned and dropped
          ones, plus the canonical re-solve when the race could fan
          out).  Exposes the clause-tier, minimization, and inprocessing
          counters for `--stats` output and the benchmark JSON; see
          [doc/PERFORMANCE.md]. *)
  strategy_name : string;
      (** Name of the permutation-spot strategy actually used, after
          defaulting ({!Strategy.name}). *)
  trajectory : (float * int) list;
      (** Objective trajectory of the whole candidate race: one
          [(seconds-since-start, cost)] entry per global incumbent
          improvement, in time order with strictly decreasing costs.
          The last entry's cost equals the winning model's cost. *)
  phase_seconds : (string * float) list;
      (** Wall-clock seconds summed per pipeline stage across every
          candidate: [encode], [warm_start], [solve], [reconstruct],
          [verify] (always all five, zero when unused).  With parallel
          candidates the stage sums can exceed [runtime]. *)
  witness : witness option;
      (** Raw optimality evidence, present iff [options.certificate]
          was set. *)
}

(** A live progress sample, delivered while {!run} is working. *)
type progress = {
  p_phase : string;  (** pipeline stage, e.g. ["encode"] or ["solve"] *)
  p_best : int option;  (** best objective cost published so far *)
  p_conflicts : int;  (** SAT conflicts, summed over all solvers *)
  p_restarts : int;  (** solver restarts, summed over all solvers *)
  p_elapsed : float;  (** seconds since the call started *)
}

type failure =
  | Too_many_logical of { logical : int; physical : int }
  | Unmappable of Qxm_sat.Solver.stats
      (** no valid mapping under the chosen strategy; carries the solver
          work spent finding that out, as {!report.sat_stats} would *)
  | Timeout of Qxm_sat.Solver.stats
      (** budget exhausted before any model was found; carries the solver
          work spent until then *)

val pp_failure : Format.formatter -> failure -> unit

val run :
  ?options:options ->
  ?session:session ->
  ?pool:Qxm_par.Pool.t ->
  ?cancel:Qxm_par.Cancel.t ->
  ?on_progress:(progress -> unit) ->
  arch:Qxm_arch.Coupling.t ->
  Qxm_circuit.Circuit.t ->
  (report, failure) result
(** Map [circuit] onto [arch].  The input must not contain SWAP gates
    (decompose them first); barriers pass through.

    [?session] resumes a previous call's per-candidate solver state
    (see {!session}); the caller guarantees the same [arch] and
    [circuit] across the session's calls.

    [?pool] shares an existing worker pool instead of spinning up
    [options.jobs] fresh domains — the portfolio layer passes its own so
    every ladder rung's candidate fan-out draws from one set of workers.
    [?cancel] is polled between candidates and inside every SAT solve
    (via [Solver.set_stop]); once cancelled, the call winds down quickly
    and reports whatever it can ([Timeout] when nothing was found).

    [?on_progress] is invoked from inside the run — at stage
    transitions, on every incumbent improvement, and on the solvers'
    64-conflict progress tick.  With parallel candidates it fires
    concurrently from several domains, so the callback must be
    thread-safe and fast; conflict/restart counts are cumulative over
    all solvers of this call.
    @raise Invalid_argument on SWAP gates in the input. *)
