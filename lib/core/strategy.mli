(** Permutation-point strategies (Secs. 3 and 4.2).

    The exact formulation allows the logical→physical mapping to change
    before every CNOT gate but the first.  Each performance strategy
    restricts the set G' ⊆ G \ {g₁} of gates a permutation may precede,
    shrinking the search space at a possible cost in minimality. *)

type t =
  | Minimal
      (** Permutations before every gate (Sec. 3) — guarantees the global
          minimum. *)
  | Disjoint_qubits
      (** Only before each cluster of gates on pairwise-disjoint qubits. *)
  | Odd_gates  (** Only before gates with odd index k ≥ 3. *)
  | Qubit_triangle
      (** Only before each run touching more than 3 distinct qubits. *)

val all : t list

val spots : t -> (int * int) list -> int list
(** [spots strategy cnots]: the 0-based positions (each in [1, |G|-1])
    before which a permutation is allowed, ascending.  The initial mapping
    (before gate 0) is always free and not listed. *)

val reported_size : t -> (int * int) list -> int
(** |G'| as printed in Table 1: the number of permutation points
    *including* the free initial mapping, i.e. [List.length (spots …) + 1]
    (0 for an empty circuit). *)

val name : t -> string
val of_string : string -> t option
val pp : Format.formatter -> t -> unit
