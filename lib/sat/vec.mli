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
  val make : int -> int -> t
  (** [make n x] is a vector of [n] copies of [x]. *)

  val size : t -> int
  val is_empty : t -> bool
  val get : t -> int -> int
  val set : t -> int -> int -> unit
  val push : t -> int -> unit
  val pop : t -> int
  (** Remove and return the last element. @raise Invalid_argument if empty. *)

  val last : t -> int
  val clear : t -> unit
  val shrink : t -> int -> unit
  (** [shrink v n] truncates [v] to its first [n] elements. *)

  val grow_to : t -> int -> int -> unit
  (** [grow_to v n x] extends [v] with copies of [x] until [size v >= n]. *)

  val swap_remove : t -> int -> unit
  (** Remove index [i] in O(1) by moving the last element into its place. *)

  val iter : (int -> unit) -> t -> unit
  val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
  val exists : (int -> bool) -> t -> bool
  val to_list : t -> int list
  val of_list : int list -> t
  val sort : (int -> int -> int) -> t -> unit
  val unsafe_get : t -> int -> int
  val unsafe_set : t -> int -> int -> unit
end

(** Growable vector of arbitrary elements (used for clause references). *)
module Poly : sig
  type 'a t

  val create : unit -> 'a t
  val size : 'a t -> int
  val get : 'a t -> int -> 'a
  val set : 'a t -> int -> 'a -> unit
  val push : 'a t -> 'a -> unit
  val pop : 'a t -> 'a
  val clear : 'a t -> unit
  val shrink : 'a t -> int -> unit
  val swap_remove : 'a t -> int -> unit
  val iter : ('a -> unit) -> 'a t -> unit
  val fold : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
  val filter_in_place : ('a -> bool) -> 'a t -> unit
  val to_list : 'a t -> 'a list
  val sort : ('a -> 'a -> int) -> 'a t -> unit
end
