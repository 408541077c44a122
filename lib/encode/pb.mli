(** Generalized (weighted) totalizer for pseudo-Boolean objectives.

    The paper's objective (Eq. 5) is a weighted sum
    F = Σ 7·swaps(π)·y + Σ 4·z of Boolean indicators.  This module encodes
    the reachable partial sums of such a weighted sum as indicator
    literals, following the Generalized Totalizer Encoding of
    Joshi, Martins & Manquinho (CP 2015): the output for value [v] is
    forced true whenever the true inputs contain a subset of weight
    exactly [v]; in particular, forbidding every output above a bound [B]
    enforces Σ ≤ B. *)

type t

val build : ?cap:int -> Cnf.t -> (int * Qxm_sat.Lit.t) list -> t
(** [build cnf terms] encodes the weighted sum of [terms].  Weights must be
    positive.

    [cap] bounds the circuit to the bounds a caller will actually ask
    for: every leaf and pair sum above it is clamped to the overflow
    value [max cap 0 + 1], so all sums above [cap] share one output and
    the circuit stops growing there.  For every [b <= cap],
    {!enforce_at_most} still forbids exactly the assignments with
    Σ > [b]; a bound above [cap] is rejected.  Without [cap] every
    attainable sum gets its own output.

    Every call adds the outputs it creates and the clauses it emits to
    the [pb.outputs] and [pb.clauses] counters of {!Qxm_obs.Metrics}.

    @raise Invalid_argument on a non-positive weight. *)

val output_bound : ?cap:int -> int list -> int
(** [output_bound ?cap weights] is an upper bound on the number of
    fresh variables [build ?cap] creates for terms with these weights,
    in this order; the terms' own literals are not counted.  Computed
    from the weights alone, so a solver can be sized for the circuit
    before it exists.  Weights must be positive. *)

val cap : t -> int option
(** The [cap] the circuit was built with ([None]: uncapped). *)

val values : t -> int list
(** The attainable non-zero partial sums, ascending.  On a capped circuit
    the sums up to the cap are exact, and the last value is the overflow
    [max cap 0 + 1] whenever some sum exceeds the cap. *)

val max_value : t -> int
(** Sum of all weights (0 for an empty objective), capped or not. *)

val next_above : t -> int -> int option
(** Smallest attainable sum strictly above [b], if any.  On a capped
    circuit, when no sum lies in ([b], cap] this is the overflow
    [max cap 0 + 1]: never more than the true next attainable sum, so a
    gap check ("nothing attainable between [b] and F*") built on it stays
    sound. *)

val tighten : t -> int -> int
(** [tighten t b] is the largest attainable sum that is [<= b] — the next
    meaningful bound to try below [b] (0 when none).  Exact for
    [b <= cap]; above the cap it can return the overflow value, which is
    not a bound the circuit can enforce. *)

val enforce_at_most : Cnf.t -> t -> int -> unit
(** Permanently constrain the weighted sum to at most [b].
    @raise Invalid_argument if [b] is above the circuit's cap. *)
