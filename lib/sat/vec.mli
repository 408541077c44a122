(** Growable arrays for the solver's clause lists and the encoder's
    clause buffer.

    The integer case avoids any per-element boxing and amortizes growth
    by doubling.  Watch lists live in {!Watches} pools instead, and the
    solver's trail and analysis buffers are its own plain arrays, sized
    to their bounds, so its hot paths make no call into this module. *)

(** Growable vector of unboxed [int]s. *)
module Int : sig
  type t

  val create : ?capacity:int -> unit -> t
  val size : t -> int
  val is_empty : t -> bool
  val get : t -> int -> int
  val set : t -> int -> int -> unit
  val push : t -> int -> unit
  val clear : t -> unit
  val shrink : t -> int -> unit
  (** [shrink v n] truncates [v] to its first [n] elements. *)

  val iter : (int -> unit) -> t -> unit
  val to_list : t -> int list
  val sort : (int -> int -> int) -> t -> unit
  val unsafe_get : t -> int -> int
  val unsafe_set : t -> int -> int -> unit
end
