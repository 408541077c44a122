(** Deterministic fault injection for the SAT layer.

    The portfolio mapper promises to degrade gracefully when the exact
    pipeline exhausts its budgets.  Waiting for a real solver timeout in
    tests is slow and nondeterministic, so this module provides a seeded
    injection point that {!Solver.solve} consults on every call: a test
    (or the [--inject] CLI knob) arms a schedule, and the solver then
    returns [Unknown] or runs under a truncated conflict budget exactly
    where the schedule says — reproducibly, on every run.

    The harness is process-global and off by default; an unarmed program
    pays one branch per [solve] call.  Arm it only from tests, the CLI
    knob, or other top-level drivers — never from library code.

    All entry points are mutex-protected, so concurrent solver domains
    observe exact counters.  Schedules that count solve calls are still
    order-sensitive under parallelism, which is why {!Qxm_exact.Mapper}
    drops to a single worker whenever a schedule is armed. *)

type schedule =
  | Always_unknown  (** Every solve call returns [Unknown] immediately. *)
  | After_solves of int
      (** The first [n] solve calls run normally; every later call
          returns [Unknown].  This is the deterministic stand-in for a
          wall-clock deadline expiring mid-minimization. *)
  | Truncate_conflicts of int
      (** Every solve call runs with a conflict budget of at most [n]
          additional conflicts, simulating an aggressive per-call
          conflict limit. *)
  | Seeded of { seed : int; unknown_prob : float }
      (** Each solve call independently returns [Unknown] with
          probability [unknown_prob], driven by a private xorshift
          stream seeded with [seed] — the same seed always yields the
          same fault pattern. *)

(** What the armed schedule decided for one [solve] call. *)
type action =
  | Pass  (** Run the call normally. *)
  | Forced_unknown  (** Return [Unknown] without searching. *)
  | Truncated of int  (** Run with at most this many extra conflicts. *)

val arm : schedule -> unit
(** Install [schedule], resetting the solve counter, fault counter and
    random stream.  Replaces any previously armed schedule. *)

val disarm : unit -> unit
(** Remove the armed schedule; subsequent solves run normally. *)

val armed : unit -> schedule option

val with_schedule : schedule -> (unit -> 'a) -> 'a
(** [with_schedule s f] arms [s], runs [f], and disarms again even if
    [f] raises. *)

val of_string : string -> (schedule, string) result
(** Parse the [--inject] grammar shared by the [qxmap] and [qxmapd]
    CLIs: [unknown], [after=N], [truncate=N] (N a non-negative integer)
    or [seed=K:P] (K an integer, P a probability in \[0, 1\]).  The
    error is a one-line message naming what was wrong. *)

val solves_seen : unit -> int
(** Solve calls observed since the last {!arm}. *)

val injected : unit -> int
(** Faults injected (non-[Pass] actions) since the last {!arm}. *)

val on_solve : unit -> action
(** Advance the schedule by one solve call and report its decision.
    Called by {!Solver.solve}; [Pass] when nothing is armed. *)

val corrupt : seed:int -> string -> string
(** Deterministically damage a textual input (truncate it, flip a byte,
    delete a span, or splice in a garbage token — which mutation and
    where both derive from [seed]).  Used by the parser-robustness
    tests to generate malformed QASM/DIMACS corpora that are stable
    across runs. *)
