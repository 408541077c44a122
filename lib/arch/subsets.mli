(** Physical-qubit subset enumeration (Sec. 4.1).

    When a circuit uses n < m qubits, the mapper may restrict itself to n
    of the m physical qubits and solve (m choose n) smaller instances.
    Subsets whose induced coupling graph is disconnected can never host a
    connected interaction and are pruned up front (Ex. 9: on QX4 every
    4-subset must contain p₂ — 0-based — leaving 4 of the 5 subsets). *)

val choose : int -> int list -> int list list
(** [choose k xs]: all size-[k] subsets, each ascending, in lexicographic
    order. *)

val all : Coupling.t -> int -> int list list
(** All size-[n] subsets of the architecture's qubits. *)

val connected : Coupling.t -> int -> int list list
(** Only the subsets whose induced undirected graph is connected.

    Memoized on the canonical coupling form (qubit count + sorted edge
    list) and [n]: repeated calls for equal architectures return the
    same physical list.  Safe to call from concurrent domains; never
    mutate the result. *)

val connected_classes : Coupling.t -> int -> (int list * int) list
(** One representative per isomorphism class of the induced coupling
    graphs of {!connected}, with the class's size: [(subset, members)].
    Representatives come in {!connected} order and each is the
    lowest-indexed subset of its class; the sizes sum to
    {!count_connected}.  Isomorphic sub-architectures share their
    mapping optimum ({!Automorphism}), so the mapper solves at most the
    representatives (only the {!maximal_classes} among them).  Subsets
    are bucketed by edge count and sorted (in, out)-degree multiset,
    then compared with {!Automorphism.isomorphism}; a pair whose search
    runs out of budget stays in separate classes.  Memoized like
    {!connected}. *)

val maximal_classes : Coupling.t -> int -> int list list
(** The representatives of {!connected_classes} whose induced coupling
    graph embeds ({!Automorphism.embedding}) into no other
    representative's, in {!connected} order.  A class that embeds into
    another can never have the lower mapping optimum, so the mapper
    solves only these; at least one always remains, since classes that
    embed into each other are isomorphic.  A pair whose embedding search
    runs out of budget counts as not embedding: the class is kept.
    Memoized like {!connected}. *)

val count_all : Coupling.t -> int -> int
val count_connected : Coupling.t -> int -> int
