(** Deterministic retry policy with exponential backoff and seeded
    jitter.

    A request that fails on a {e transient} fault (an injected solver
    fault, a portfolio whose every engine failed) is retried on a
    geometric delay schedule.  The jitter that decorrelates a thundering
    herd is derived from a seeded hash of [(seed, attempt)] rather than
    a global RNG, so a given policy always produces the same delay
    sequence — the property the fault-injection tests assert without a
    single wall-clock sleep (they pass a recording [sleep] function). *)

type policy = {
  max_attempts : int;  (** total tries, including the first (>= 1) *)
  base : float;  (** delay before the first retry, seconds *)
  factor : float;  (** geometric growth per retry (>= 1.0) *)
  max_delay : float;  (** cap on any single delay, seconds *)
  jitter : float;
      (** fraction of the delay randomized, in [0, 1]: the delay for
          attempt [k] is [d_k * (1 - jitter + jitter * u)] with [u] a
          seeded uniform draw in [0, 1). *)
  seed : int;  (** jitter stream seed — same seed, same schedule *)
}

val default : policy
(** 3 attempts, 50 ms base, ×4 growth, 2 s cap, 20% jitter, seed 1. *)

val delay : policy -> attempt:int -> float
(** Delay to sleep {e after} failed attempt [attempt] (1-based).
    Deterministic in [(policy, attempt)]. *)

val retry :
  ?sleep:(float -> unit) ->
  policy ->
  ?on_retry:(attempt:int -> delay:float -> unit) ->
  (attempt:int -> ('a, 'e) result) ->
  ('a, 'e) result
(** Run the function up to [max_attempts] times, sleeping [delay]
    between tries ([sleep] defaults to [Unix.sleepf]; tests inject a
    recorder).  The first [Ok] wins; the last [Error] is returned when
    every attempt fails.  [on_retry] fires before each sleep — the
    daemon counts retries through it. *)
