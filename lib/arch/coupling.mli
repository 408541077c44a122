(** Directed coupling maps (Def. 2 of the paper).

    A coupling map over [m] physical qubits is a set of directed pairs
    (pᵢ, pⱼ): a CNOT with control pᵢ and target pⱼ is executable iff the
    pair is present.  The reverse direction of an executable pair is
    reachable at the cost of 4 Hadamards. *)

type t

val create : num_qubits:int -> (int * int) list -> t
(** @raise Invalid_argument on out-of-range endpoints, self-loops, or a
    non-positive qubit count. Duplicate edges are collapsed. *)

val num_qubits : t -> int

val edges : t -> (int * int) list
(** Directed edges, sorted. *)

val allows : t -> int -> int -> bool
(** [allows cm c t]: can a CNOT with control [c] and target [t] run
    natively? *)

val coupled : t -> int -> int -> bool
(** Either direction present. *)

val neighbors : t -> int -> int list
(** Undirected adjacency, ascending. *)

val undirected_edges : t -> (int * int) list
(** Each coupled pair once, with [a < b], sorted. *)

val degree : t -> int -> int

val is_connected : t -> bool
(** Whole architecture connected (undirected sense). *)

val largest_component : t -> int
(** Qubit count of the largest connected component (undirected sense):
    the device has a connected set of [n] physical qubits iff [n] is at
    most this. *)

val subset_connected : t -> int list -> bool
(** Is the induced undirected subgraph on these qubits connected?  The
    empty subset counts as connected. *)

val induce : t -> int list -> t * int array
(** [induce cm subset] restricts the map to [subset] (ascending order
    required), renumbering qubits to [0 .. |subset|-1].  Returns the
    restricted map and the array mapping new indices back to original
    physical qubits. *)

val triangles : t -> (int * int * int) list
(** All triples mutually coupled (undirected) — the "qubit triangles" of
    Sec. 4.2. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_dot : t -> string
(** Graphviz rendering of the coupling map (Fig. 2 style). *)
