(** Exact routing by dynamic programming over layouts.

    Eq. (5) of the paper, for one {!Encoding.instance}, is a shortest
    path: a layout is one of the m! placements of the logical qubits
    (logical qubits [n .. m-1] are idle dummies, which covers n < m); a
    CNOT costs 0 on a coupled pair in its native direction,
    [flip_weight] against it, and is infeasible on an uncoupled pair; the
    layout may change only at the instance's [spots], where moving from
    layout L to L' costs [swap_weight] per SWAP of the cheapest sequence
    on coupled pairs.  The solver runs one min-plus step per segment,
    relaxing over single-SWAP moves with a bucket queue, so a spot costs
    O(m!·|E|) instead of an m!×m! transition table.

    It derives the optimum without the CNF: nothing here shares code
    with {!Encoding.build} beyond the instance record and, under
    [symmetry], the lex-leader predicate {!Encoding.lex_leader}.  The
    mapper uses its routing only as a warm-start seed; a DP value is
    never enforced as a bound, so no [optimal] claim rests on it. *)

type routing = {
  cost : int;  (** Eq. (5) under the given cost model: the optimum *)
  layouts : int array array;
      (** per segment, the full layout: [layouts.(s).(j)] is the physical
          qubit of logical [j], for [j < m] (dummies included) — the
          shape {!Encoding.routing_assumptions} takes *)
  flips : bool array;  (** per CNOT: runs against the edge direction *)
}


val tractable : Encoding.instance -> bool
(** At most 8 physical qubits (the limit of
    {!Qxm_arch.Swap_count.compute}, so every instance the encoding
    accepts) and at most 2{^22} cells of back-pointer table
    (segments × m!). *)

val solve :
  ?costs:Encoding.cost_model ->
  ?symmetry:bool ->
  Encoding.instance ->
  routing option
(** The cheapest routing of the instance, [None] when none exists (some
    segment's CNOTs fit no single layout).  [costs] defaults to
    {!Encoding.paper_costs}.  With [symmetry] (default [false]) the
    segment-0 layout must satisfy {!Encoding.lex_leader}, as the
    encoding's symmetry clauses demand; the optimum is unchanged, only
    which routing is returned.  Ties go to the lowest-ranked layouts, so
    the result is deterministic.
    @raise Invalid_argument on an instance {!Encoding.validate} rejects
    or that is not {!tractable}. *)
