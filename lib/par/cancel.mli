(** Cooperative cancellation token.

    A single atomic flag: a supervisor (a daemon request's deadline
    watchdog, a batch driver) calls {!cancel}; the mapping pipeline polls
    {!cancelled} at its own safe points, and long-running SAT solves
    observe the same flag through [Qxm_sat.Solver.set_stop], which turns
    it into a prompt [Unknown] instead of running out the conflict
    budget. *)

type t

val create : unit -> t
val cancel : t -> unit
(** Set the flag.  Idempotent; never unset. *)

val cancelled : t -> bool

val flag : t -> bool Atomic.t
(** The underlying atomic, for [Qxm_sat.Solver.set_stop]. *)
