(** Flat int-packed clause arena.

    All clauses live in one growable unboxed [int array]; a clause
    reference (cref) is the word offset of its 3-word header
    ([size]+flags, LBD, activity as float bits), followed by the literals
    inline.  Propagation therefore reads literals with plain int-array
    indexing — no record or array object per clause, no pointer chasing,
    no GC write barriers on the hot path.

    Deleted clauses leave garbage words behind, tracked by {!wasted};
    the solver triggers a copying collection with {!move}/{!forward}
    when the garbage fraction grows and remaps its own roots (clause
    lists, watch lists, reasons).

    {!Solver}'s hot paths read and write the layout directly on {!mem}
    — the header word [(size lsl 3) lor flags] at the cref, the LBD at
    [+1], literal [i] at [+3+i] — rather than calling {!size}, {!lit}
    or {!lbd}, which a build with [-opaque] cannot inline; a change to
    the layout must change the solver's accessors too. *)

type t

val header_words : int
(** Words of header before a clause's literals (3). *)

val cref_undef : int
(** The null clause reference (-1); never a valid offset. *)

val flag_learnt : int
val flag_deleted : int

val flag_moved : int
(** Header flag bits, exported so the solver's propagation loop can test
    them directly on a cached {!mem} array without re-fetching [t]. *)

val create : ?capacity:int -> unit -> t
(** [capacity] is in words. *)

val mem : t -> int array
(** The backing storage, for direct indexing on the propagation hot path.
    Invalidated by any allocation or collection — re-fetch after either. *)

val top : t -> int
(** First free word — the arena's current size in words. *)

val wasted : t -> int
(** Garbage words owned by deleted clauses. *)

val size : t -> int -> int
(** Number of literals of the clause at a cref. *)

val deleted : t -> int -> bool

val set_deleted : t -> int -> unit
(** Mark deleted (idempotent); adds the clause's words to {!wasted}. *)

val lbd : t -> int -> int

val activity : t -> int -> float
(** Clause activity; stored losslessly as the float's bit pattern (clause
    activities are non-negative, so 63 bits suffice). *)

val set_activity : t -> int -> float -> unit

val activity_bits : t -> int -> int
(** The stored activity word itself.  Non-negative IEEE-754 doubles
    order the same way as their bit patterns, so integer comparisons on
    these words sort clauses by activity without allocating a boxed
    float per read. *)

val bump_activity : t -> int -> float -> bool
(** [bump_activity a c inc] adds [inc] to the clause's activity in
    place and returns [true] when the new value exceeds the [1e20]
    rescale threshold.  Equivalent to a [activity]/[set_activity] pair,
    but the intermediate float never escapes the arena, so the bump
    allocates nothing. *)

val lit : t -> int -> int -> Lit.t

val lits : t -> int -> Lit.t array
(** Copy of the clause's literals (for proof logging and audits). *)

val alloc : t -> learnt:bool -> lbd:int -> Lit.t array -> int -> int
(** [alloc t ~learnt ~lbd lits len]: allocate a clause holding the first
    [len] entries of [lits]; returns its cref.  Activity starts at 0. *)

val move : t -> into:t -> int -> int
(** Relocate one live clause into a destination arena, installing a
    forwarding pointer; returns the new cref (or the existing forward if
    already moved, or {!cref_undef} if the clause is deleted). *)

val forward : t -> int -> int
(** The forwarding cref installed by {!move}, or {!cref_undef}. *)

val validate : ?nvars:int -> t -> string list
(** Structural audit: headers parse exactly to {!top}, sizes are >= 2, no
    stray moved flags, literals in range, and the wasted counter agrees
    with a full scan.  Defensive — never reads out of bounds. *)

val clause_offsets : t -> int list
(** Offsets of every clause (live and deleted) in layout order. *)

val corrupt_flags : t -> bool
(** Testing hook: set an illegal flag bit on the first clause so
    {!validate} reports it; [false] when the arena is empty. *)
