(** Symbolic formulation of the mapping problem (Sec. 3.2 of the paper).

    Variables (Defs. 4 and 5):
    - mapping variables x^s_ij — logical qubit j sits on physical qubit i
      during segment s (a segment is a maximal gate range with no
      permutation point inside, so consecutive gates share one variable
      block; with the [Minimal] strategy every gate is its own segment,
      which is exactly the paper's x^k_ij),
    - switching variables z^k — CNOT k runs against the edge direction
      (Eq. 4), costing 4 H gates,
    - permutation variables y^s_π — permutation π is applied at spot s
      (Eq. 3), costing 7·swaps(π).

    Constraints: Eq. (1) exactly-one/at-most-one mapping consistency,
    Eq. (2) coupling compliance, Eq. (3) permutation semantics, and a
    unary "cost ladder" per spot that carries Eq. (5)'s weighted objective
    to the pseudo-Boolean optimizer: step t of spot s is forced true
    whenever the applied permutation needs at least t SWAPs, and each step
    carries weight 7.

    Two variable regimes:
    - n = m (the subset pipeline of Sec. 4.1 always lands here): the
      permutation between segments is uniquely determined by the x
      variables, so y^s_π is defined from content-movement indicators;
    - n < m (footnote 5): π is not unique, so at least one y^s_π must be
      chosen and the chosen permutation must agree with the movement of
      every occupied position. *)

type instance = {
  arch : Qxm_arch.Coupling.t;  (** must be connected *)
  num_logical : int;
  cnots : (int * int) array;  (** logical (control, target) per gate *)
  spots : int list;
      (** ascending gate positions in [1, |G|-1] allowing a permutation *)
}

(** Objective weights of Eq. (5).  The paper counts elementary
    operations: 7 per SWAP and 4 per direction switch.  Other weightings
    give other exact objectives — (1, 1) minimizes the number of
    *insertions*, (1, 0) ignores direction switches entirely. *)
type cost_model = { swap_weight : int; flip_weight : int }

val paper_costs : cost_model
(** [{ swap_weight = 7; flip_weight = 4 }]. *)

val validate : instance -> unit
(** @raise Invalid_argument on malformed instances (n > m, disconnected
    architecture, out-of-range qubits or spots). *)

type built

val var_capacity_hint : ?costs:cost_model -> ?pb_cap:int -> instance -> int
(** Upper-bound estimate of the number of solver variables {!build} will
    allocate for the instance (mapping blocks, switching variables,
    Tseitin auxiliaries of every constraint family), plus those of the
    PB circuit an optimizer builds over its {!objective} under [costs]
    (default {!paper_costs}) with cap [pb_cap] ({!Qxm_encode.Pb.build};
    uncapped when absent).  Intended as the [?capacity] pre-sizing hint
    of {!Qxm_sat.Solver.create}, so building and optimizing never regrow
    the solver's per-variable storage; over-estimating only wastes a few
    arrays.  Returns [0] (no hint) on instances that {!validate} would
    reject. *)

val build :
  ?amo:Qxm_encode.Amo.encoding ->
  ?costs:cost_model ->
  ?symmetry:bool ->
  Qxm_encode.Cnf.t ->
  instance ->
  built
(** Encode the instance into the context's solver.  [costs] defaults to
    {!paper_costs}; weights must be non-negative (zero-weight terms are
    left out of the objective).

    [symmetry] (default [false]) adds lex-leader symmetry-breaking
    constraints over the initial-layout variable block: for each
    automorphism π of the coupling graph ({!Qxm_arch.Automorphism.all}),
    the segment-0 layout vector must be lexicographically ≤ its
    π-relabelling.  Relabelling physical qubits by an automorphism
    preserves every cost term, so these constraints are
    model-restricting but optimum-preserving: the minimum of the
    objective is unchanged, only which witness models survive.  A
    certificate produced from a symmetry-broken encoding must be audited
    against the same flag. *)

val objective : built -> (int * Qxm_sat.Lit.t) list
(** Eq. (5) as weighted literals: [swap_weight] per cost-ladder step,
    [flip_weight] per z^k (7 and 4 under {!paper_costs}). *)

val num_segments : built -> int
val segment_of_gate : built -> int -> int

val symmetry : built -> bool
(** Whether the encoding includes the lex-leader symmetry-breaking
    constraints ([build]'s [symmetry] flag). *)

val mapping_of_model : built -> bool array -> int array array
(** Per segment: array [place] with [place.(j)] = physical qubit hosting
    logical [j < n] — the layouts {!Mapper} rebuilds the circuit from.
    With n < m they leave the idle positions' movement open; the
    rebuild completes each spot with the cheapest permutation of the
    {!swap_table} that moves every occupied position as they say. *)

val swap_table : built -> Qxm_arch.Swap_count.t

val routing_assumptions :
  built -> layouts:int array array -> flips:bool array -> Qxm_sat.Lit.t list
(** The literals that pin the encoding to one concrete routing, for use
    as solver assumptions (the warm-start seed of
    {!Qxm_opt.Minimize.minimize}).  [layouts.(s)] is segment [s]'s full
    layout: [layouts.(s).(j)] is the physical qubit of logical [j] for
    [j < m], where logicals [n .. m-1] are idle dummies that fix which
    physical movement each spot performs.  [flips.(k)] says CNOT [k]
    runs against the edge direction.  The list holds x^s_ij for every
    placed logical qubit, z^k or its negation for every gate, and every
    cost-ladder step of spot [s] set to whether the movement from
    [layouts.(s-1)] to [layouts.(s)] needs more SWAPs than its index.
    When the routing is feasible under the encoding's constraints
    (including its symmetry clauses) the assumptions are satisfiable and
    every model has exactly the routing's Eq. (5) cost; otherwise they
    are refuted, which costs only that solve.
    @raise Invalid_argument on a routing of the wrong shape. *)

val lex_leader : Qxm_arch.Coupling.t -> num_logical:int -> int array -> bool
(** [lex_leader arch ~num_logical place] is the predicate that [build]'s
    symmetry clauses impose on the initial layout, evaluated on a
    concrete layout ([place.(j)] = physical qubit of logical [j]): the
    layout passes iff it is lexicographically ≤ its relabelling under
    every automorphism the clauses enumerate.  Partial application
    computes the automorphisms once. *)

val var_count : built -> int
val clause_count : built -> int
