(** One family of watch lists (long or binary watchers) in a single
    unboxed pool.

    A watcher is two adjacent words of [pool].  List [l] owns a slot of
    [cap.(l)] pairs (a power of two, at least 4) from word [off.(l)], and
    its first [len.(l)] pairs are live.  A list that outgrows its slot
    moves, in order, to one twice the size; the vacated slot joins its
    size class's free list, threaded through its first word.  New slots
    come from that list or from [top], and the pool doubles when full.
    No operation reorders a list, so propagation visits watchers in push
    order.  The record is read-only outside, for scanning with plain
    indexing; [pool] is replaced when it grows, so re-read it after any
    {!push}. *)

type t = private {
  mutable pool : int array;
  mutable top : int;  (** first word no slot has been carved from *)
  mutable off : int array;  (** per list: first word of its slot *)
  mutable len : int array;  (** per list: live pairs *)
  mutable cap : int array;  (** per list: slot capacity in pairs, 0 = none *)
  free : int array;  (** per size class: first free slot's word, or -1 *)
}

val create : ?capacity:int -> unit -> t
(** [capacity] pre-sizes the pool, in pairs. *)

val grow : t -> int -> unit
(** Make room for lists [0 .. n-1]; new lists are empty. *)

val lists : t -> int
(** Number of lists there is room for (at least the largest [grow]). *)

val push : t -> int -> int -> int -> unit
(** [push t l a b] appends the pair [(a, b)] to list [l]. *)

val shrink : t -> int -> int -> unit
(** [shrink t l n] keeps the first [n] pairs of list [l]. *)

val iter : t -> int -> (int -> int -> unit) -> unit

val remap : t -> int -> int -> (int -> int) -> unit
(** [remap t l k f] replaces word [k] (0 or 1) of each pair of list [l]
    by [f] of it and drops the pairs [f] sends below 0, keeping the
    survivors in order: it filters and forwards clause references. *)

val to_list : t -> int -> (int * int) list

val check : t -> string list
(** Audit the pool's layout: every list's length fits its slot, slot
    capacities are powers of two of at least 4 pairs, and no two slots —
    live or on a free list — share a word or leave [0, top).  Returns
    human-readable violations, empty when the pool is sound. *)
