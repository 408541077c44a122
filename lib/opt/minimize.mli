(** SAT-based minimization of a weighted Boolean objective.

    Implements the optimization role Z3 plays in the paper: find an
    assignment satisfying the clause database that minimizes
    F = Σ wᵢ·ℓᵢ (Def. 3, extended interpretation) by linear descent:
    solve, read the model's cost c, constrain F ≤ c−1, repeat until
    UNSAT.  Bounds only tighten, so they are added as unit clauses, which
    lets the solver keep all learnt clauses.  The search is *anytime* —
    on budget exhaustion it reports the best model found so far together
    with an optimality flag. *)

type outcome = {
  cost : int option;  (** Best objective value found, if any model exists. *)
  model : bool array option;  (** Model achieving [cost]. *)
  optimal : bool;  (** [true] iff [cost] is proven minimal. *)
  solves : int;  (** Number of [solve] calls performed. *)
  unsatisfiable : bool;  (** [true] iff the hard clauses admit no model. *)
  proof : Qxm_sat.Proof.t option;
      (** DRUP trace captured at the final assumption-free [Unsat]
          answer, when the solver had proof logging enabled.  It
          certifies "no model with F ≤ last enforced bound"; combined
          with [cost] it witnesses optimality. *)
  bounds : int list;
      (** Every bound permanently enforced on the PB circuit
          ({!Qxm_encode.Pb.enforce_at_most} arguments, in call order,
          including the seeded [upper_bound]).  Replaying these calls
          reproduces the exact solver input stream, which is how an
          offline auditor re-derives the proof's input clauses. *)
  pb_cap : int option;
      (** The cap the PB circuit was built with
          ({!Qxm_encode.Pb.build}), [None] when no circuit was built.
          It is the first bound asked of the circuit: the seeded
          [upper_bound], or the first model's cost − 1.  Replaying
          [bounds] needs the circuit rebuilt with this same cap. *)
}

val minimize :
  ?deadline:float ->
  ?conflict_limit:int ->
  ?upper_bound:int ->
  ?warm_start:Qxm_sat.Lit.t list ->
  cnf:Qxm_encode.Cnf.t ->
  objective:(int * Qxm_sat.Lit.t) list ->
  unit ->
  outcome
(** Minimize [objective] subject to the clauses already loaded in [cnf]'s
    solver.  [deadline] is an absolute timestamp; [conflict_limit] bounds
    each individual solve call (it is rebased on the solver's cumulative
    conflict count before every call, so a descent of [k] steps may spend
    up to [k · conflict_limit] conflicts in total).  Weights must be
    positive.  Exhausting either budget ends the search with the best
    model found so far and [optimal = false].

    [upper_bound] permanently constrains the objective to at most that
    value before the first solve — a warm start when a solution of known
    cost exists (e.g. from a heuristic mapper), or a pruning device when
    the caller only cares about solutions cheaper than a bound.  With a
    bound below the true optimum, the outcome reports [unsatisfiable];
    the caller is responsible for interpreting that correctly.

    [warm_start] is a seed: literals describing one known solution (the
    mapper passes a DP-optimal routing, [Encoding.routing_assumptions]).
    The first solve runs under them as assumptions, so it
    lands on that solution at almost no search cost and the descent
    continues from its cost.  If the seed is refuted or that solve runs
    out of budget, the [minimize.seed_rejected] counter is bumped and the
    plain solve runs as though no seed had been given.  Unlike
    [upper_bound] a seed is never enforced: it cannot change the optimum
    or make the problem unsatisfiable, and it adds nothing to [bounds].
    Objective literals are always phase-seeded toward cost 0.

    Each new best-cost model records a [minimize.incumbent] trace
    instant with a [cost] argument, so within one call the costs
    strictly decrease and the last one equals the outcome's [cost].
    [Qxm_profile.Profile.fold_run] min-filters these instants into a
    run's objective trajectory. *)

val cost_of_model : (int * Qxm_sat.Lit.t) list -> bool array -> int
(** Evaluate an objective on a model. *)
