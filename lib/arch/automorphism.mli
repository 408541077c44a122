(** Automorphisms of a directed coupling graph, and isomorphisms
    between two of them.

    A physical-qubit permutation π is an automorphism when it preserves
    the directed edge relation: [allows cm i j] iff
    [allows cm (π i) (π j)].  Relabelling any mapping solution by such a
    π yields another solution with the same SWAP and H cost — every
    allowed CNOT direction, every swap path and every flip survives the
    relabelling — so the solution space of the paper's encoding is
    closed under the automorphism group.  {!Qxm_exact.Encoding} uses
    this to add lex-leader symmetry-breaking constraints over the
    initial-layout variables: model-restricting, optimum-preserving.

    The same argument carries across graphs: relabelling by an
    isomorphism between two coupling graphs maps every solution on one
    to a solution on the other with the same cost, so the two share
    their optimum.  {!Subsets.connected_classes} uses {!isomorphism} to
    let the mapper solve one connected subset per isomorphism class.

    Relaxed from "=" to "<=", the argument orders the classes: when an
    {!embedding} sends every directed edge of [b] onto an edge of [a]
    (same qubit count), relabelling any mapping on [b] by it gives a
    mapping on [a] whose CNOTs all sit on coupled pairs in the same
    direction (a flipped CNOT may even become native) and whose SWAPs
    all stay on coupled pairs, so [a]'s optimum is at most [b]'s under
    every strategy and non-negative cost model.
    {!Subsets.maximal_classes} uses it to drop every class that embeds
    into another.  All three searches run the one degree-pruned
    backtracker. *)

val all : ?max_count:int -> Coupling.t -> int array list
(** The non-identity automorphisms of the coupling graph, as permutation
    arrays ([pi.(i)] is the image of physical qubit [i]), in
    lexicographic order of the array.  Deterministic.  [max_count]
    (default 64) caps the number returned — the lex-leader constraints
    grow linearly per automorphism, and on highly symmetric graphs the
    leading group elements already remove almost all of the orbit. *)

val is_automorphism : Coupling.t -> int array -> bool
(** [is_automorphism cm pi] checks the defining property directly (used
    by tests; [pi] must be a permutation of [0 .. num_qubits-1]). *)

val isomorphism : Coupling.t -> Coupling.t -> int array option
(** [isomorphism a b] is [Some pi] with [allows a i j] iff
    [allows b (pi i) (pi j)] for all [i <> j] — the lexicographically
    first such bijection — or [None] when the graphs differ (other qubit
    or edge counts, or no degree-consistent assignment).  A returned map
    has passed the direct edge-relation check {!is_automorphism} makes.
    When the search's node budget runs out first the answer is [None]:
    treating two graphs as distinct is always safe for its callers. *)

val embedding : Coupling.t -> Coupling.t -> int array option
(** [embedding sub host] is [Some pi], a bijection with [allows sub i j]
    implying [allows host (pi i) (pi j)] for all [i <> j] — the
    lexicographically first such map — or [None] when there is none
    (other qubit counts, more edges in [sub], or no degree-dominated
    assignment extends).  Degrees are pruned by "<=" and edges by
    implication, the relaxation of {!isomorphism}; a returned map has
    passed a direct edge check.  When the node budget runs out first
    the answer is [None]: its caller then keeps [sub] as a candidate of
    its own, which is always safe.  Between graphs with equal edge
    counts an embedding is an isomorphism. *)
