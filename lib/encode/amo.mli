(** At-most-one and exactly-one constraints.

    Equation (1) of the paper demands that each logical qubit sits on
    exactly one physical qubit and each physical qubit carries at most one
    logical qubit — a grid of AMO/EO constraints, so their encoding matters.
    Three classic encodings are provided; the mapper's [amo] option
    selects one.

    Every constraint is emitted inside a {!Cnf.scope} ([amo-pairwise],
    [amo-sequential], [amo-commander], [alo], [eo]) so the lint layer can
    check the produced clauses against the expected shape.

    Degenerate sizes are handled explicitly: at-most-one over zero or one
    literal adds no clauses; at-least-one (and hence exactly-one) over the
    empty list makes the instance unsatisfiable through
    {!Cnf.add_unsat} — a flagged, intentional contradiction rather than a
    silent empty clause. *)

type encoding =
  | Pairwise  (** O(n²) binary clauses, zero auxiliary variables. *)
  | Sequential  (** Sinz ladder: O(n) clauses, n-1 auxiliaries. *)
  | Commander
      (** Recursive commander encoding with groups of 3: O(n) clauses,
          good propagation. *)

val default : encoding
(** [Sequential] — the best all-round choice at mapping-problem sizes. *)

val at_most_one :
  ?encoding:encoding -> Cnf.t -> Qxm_sat.Lit.t list -> unit

val at_least_one : Cnf.t -> Qxm_sat.Lit.t list -> unit
(** A single clause.  The empty list makes the instance unsatisfiable
    (explicitly, via {!Cnf.add_unsat}). *)

val exactly_one :
  ?encoding:encoding -> Cnf.t -> Qxm_sat.Lit.t list -> unit
