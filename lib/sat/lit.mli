(** Propositional literals.

    A literal packs a 0-based variable index and a polarity into one
    integer: variable [v] positive is [2*v], negative is [2*v+1].  This is
    the classical MiniSat representation; it makes watch lists indexable by
    literal and negation a single xor.

    {!Solver} reads this encoding directly on its hot paths ([l lsr 1],
    [l land 1], [l lxor 1]) rather than calling {!var}, {!sign} and
    {!negate}, which a build with [-opaque] cannot inline; a change to
    the encoding must change its accessors too. *)

type t = int

val make : int -> bool -> t
(** [make v sign] is variable [v] with polarity [sign] ([true] = positive).
    @raise Invalid_argument on a negative variable index. *)

val pos : int -> t
(** Positive literal of a variable. *)

val neg_of : int -> t
(** Negative literal of a variable. *)

val var : t -> int
(** Variable index of a literal. *)

val sign : t -> bool
(** [true] iff the literal is positive. *)

val negate : t -> t
(** Complement literal. *)

val to_int : t -> int
(** DIMACS encoding: variable [v] positive is [v+1], negative is [-(v+1)]. *)

val of_int : int -> t
(** Inverse of {!to_int}. @raise Invalid_argument on [0]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
(** Prints in DIMACS style, e.g. [-3]. *)
