(** The exact mapper: end-to-end pipeline from a logical circuit to a
    coupling-compliant physical circuit with minimal (or strategy-bounded)
    SWAP/H cost.

    Pipeline: extract the CNOT skeleton (Fig. 1b) → choose permutation
    spots per {!Strategy} → encode ({!Encoding}) → minimize Eq. (5) by
    linear descent ({!Qxm_opt.Minimize}), starting at the permutation
    DP's routing ({!Dp_exact}) → reconstruct the mapped circuit from the
    per-segment layouts (of the SAT model, or of the DP routing when no
    model was found) by replaying the original gate list with SWAP
    chains at permutation spots and H-flips on direction-violating
    CNOTs → optionally prove equivalence by unitary simulation. *)

type options = {
  strategy : Strategy.t;
  use_subsets : bool;
      (** Sec. 4.1: solve square instances over the connected
          physical-qubit subsets instead of one instance on the whole
          device — one per maximal isomorphism class of induced
          sub-architectures ({!Qxm_arch.Subsets.maximal_classes}),
          since isomorphic candidates share their optimum, the
          lowest-indexed one wins every tie, and a class that embeds
          into another is never cheaper than it.  A disconnected device
          is always solved over its connected subsets, whatever this
          flag says: the whole device has no encoding. *)
  timeout : float option;
      (** Wall-clock seconds for the whole call.  A slice of it (10%,
          at most one second) is reserved for reconstruction and
          verification, so the SAT stages stop slightly earlier and a
          late incumbent still yields a complete report. *)
  conflict_limit : int;
      (** Per-solve-call conflict budget handed to the optimizer
          ([-1] = unlimited).  The portfolio layer uses this as its
          escalation ladder; exhausting it yields an anytime incumbent
          ([optimal = false]): a SAT model, else a seeded candidate's DP
          routing, else [Timeout]. *)
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
      (** Worker domains for the candidate fan-out (one candidate per
          maximal isomorphism class of connected subsets).  [1] runs
          candidates inline in index order — the sequential path; higher
          values race them on a [Qxm_par.Pool].  Whatever the
          interleaving, the report is deterministic: the shared
          incumbent breaks cost ties by candidate index and, when the
          race can fan out, the winner's model is re-derived canonically
          (see [doc/PARALLEL.md]).
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
          alone.  The routing is also the candidate's floor: a descent
          that ends with no model (a fault, the deadline or a cancel
          cut it) answers with it ([report.dp_incumbent]).  Turning
          this off recovers the cold solver for measurement. *)
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

val seeded :
  options -> arch:Qxm_arch.Coupling.t -> Qxm_circuit.Circuit.t -> bool
(** Whether {!run} starts every candidate of [circuit] on [arch] at the
    permutation DP's optimal routing: [options.warm_start] is set and
    {!Dp_exact.tractable} holds on the whole-device instance, the
    largest candidate [run] can encode.  The same predicate decides
    the seeding itself, so a caller planning around the seed (the
    portfolio's rung choice) cannot disagree with it. *)

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
          ({!Qxm_opt.Minimize.outcome.bounds} of the winning solve), so
          replaying them reproduces the solver's exact input stream *)
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
  dp_incumbent : bool;
      (** The answer is the winning candidate's permutation-DP routing
          ({!Dp_exact}) and no SAT model confirmed it: its descent ended
          with no model (a fault, the deadline or a cancel cut it).
          Never [optimal]; carries no [witness]. *)
  runtime : float;  (** seconds *)
  reported_gprime : int;  (** Table 1's |G'| (permutation points) *)
  subsets_tried : int;
      (** Connected subsets the call covered (Ex. 9's count; 1 without
          subsets).  Only one per maximal isomorphism class is solved
          ({!Qxm_arch.Subsets.maximal_classes}); every other subset
          takes the verdict of a class that contains it. *)
  solves : int;  (** SAT solver calls *)
  verified : bool option;  (** [Some true] iff simulation proved equality *)
  workers : int;
      (** Worker domains actually used for the candidate race:
          [min jobs classes], at least 1, where [classes] is the number
          of solved candidates (maximal isomorphism classes, not
          [subsets_tried]). *)
  pruned_by_incumbent : int;
      (** Solved candidates (maximal class representatives) whose
          search came back UNSAT under a bound supplied by the shared
          incumbent — i.e. sub-instances the branch-and-bound race
          discharged without finding their own optimum.  Candidates
          after an F = 0 winner count here too: they are discharged
          without being encoded.  Subsets that are never solved (other
          class members, and classes that embed into another) do not
          count, so this stays below the number of maximal classes. *)
  sat_stats : Qxm_sat.Solver.stats;
      (** Field-wise sum of the solver statistics of every SAT search
          this call ran (all candidates, including pruned and dropped
          ones, plus the canonical re-solve when the race could fan
          out).  Exposes the clause-tier, minimization, and arena
          counters for `--stats` output and the benchmark JSON; see
          [doc/PERFORMANCE.md]. *)
  strategy_name : string;
      (** Name of the permutation-spot strategy actually used, after
          defaulting ({!Strategy.name}). *)
  witness : witness option;
      (** Raw optimality evidence, present iff [options.certificate]
          was set. *)
}

type failure =
  | Too_many_logical of { logical : int; physical : int }
  | Disconnected of { logical : int; largest : int }
      (** the device has no connected set of [logical] physical qubits
          (its largest connected component has [largest]), so nothing
          can route the circuit; rejected before any stage runs *)
  | Unmappable of Qxm_sat.Solver.stats
      (** no valid mapping under the chosen strategy; carries the solver
          work spent finding that out, as {!report.sat_stats} would *)
  | Timeout of Qxm_sat.Solver.stats
      (** budget exhausted before any answer: no candidate was seeded
          (the DP seed is every seeded candidate's floor), or none was
          launched before the deadline or a cancel; carries the solver
          work spent until then *)

val pp_failure : Format.formatter -> failure -> unit

val run :
  ?options:options ->
  ?pool:Qxm_par.Pool.t ->
  ?cancel:Qxm_par.Cancel.t ->
  arch:Qxm_arch.Coupling.t ->
  Qxm_circuit.Circuit.t ->
  (report, failure) result
(** Map [circuit] onto [arch].  The input must not contain SWAP gates
    (decompose them first); barriers pass through.

    [?pool] shares an existing worker pool instead of spinning up
    [options.jobs] fresh domains — the portfolio layer passes its own so
    every ladder rung's candidate fan-out draws from one set of workers.
    [?cancel] is polled between candidates and inside every SAT solve
    (via [Solver.set_stop]); once cancelled, the call winds down quickly
    and reports whatever it can (a seeded candidate's DP routing, or
    [Timeout] when nothing was found).

    The run reports progress only through the trace stream: each
    pipeline stage runs in a [mapper.<phase>] span ([encode],
    [warm_start], [solve], [reconstruct], [verify]), each candidate in
    a [mapper.candidate] span, and every incumbent the descent finds is
    a [minimize.incumbent] instant.  [Qxm_profile.Profile.fold_run]
    folds them into per-phase seconds and the objective trajectory.
    @raise Invalid_argument on SWAP gates in the input. *)
