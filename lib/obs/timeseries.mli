(** Search telemetry: a lock-free per-domain time-series sampler.

    The SAT solver feeds one {!sample} every 64 conflicts (the cadence
    of its budget clock poll, see [Qxm_sat.Solver]) with the
    search-state quantities a trajectory diagnosis needs: conflict,
    decision and propagation totals, trail depth, learnt-clause tiers,
    running mean LBD and arena words.  The optimisation layers above the
    solver annotate the stream with ambient context — the active
    portfolio stage, mapper candidate and minimisation rung, plus
    the objective bound currently being attempted — so a sample is
    attributable without joining against spans.

    Design constraints mirror {!Trace}:

    - {b Disabled means free}: {!enabled} is one atomic load, and the
      solver gates its sampling call on it, so the off path costs one
      load and branch per 64-conflict tick.
    - {b No cross-worker contention}: each domain records into its own
      ring, discovered through domain-local storage; the registry lock
      is taken once per domain and at export.
    - {b Bounded memory}: each per-domain ring holds at most [capacity]
      samples.  When full it decimates — keeps every other stored
      sample and doubles its sampling stride — so an arbitrarily long
      run is summarised by at most [capacity] samples that still span
      the whole run (first and most recent samples are always
      preserved, timestamps stay monotone). *)

(** One telemetry sample.  [ts_us] is on the {!Trace.now_us} timebase;
    [bound] is the objective bound being attempted ([-1] when none);
    [label] is the ambient context ([""] when none), e.g.
    ["stage=ladder cand=0 rung=61"]. *)
type sample = {
  ts_us : float;
  tid : int;
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  trail : int;
  learnts : int;
  learnt_core : int;
  mean_lbd : float;
  arena_words : int;
  bound : int;
  label : string;
}

(** The decimating ring underneath the sampler, exposed for direct
    testing: bounded storage that preserves the first and most recent
    pushed values and the relative order of what it keeps. *)
module Ring : sig
  type 'a t

  val create : int -> 'a t
  (** [create capacity] — capacity is clamped to at least 4. *)

  val push : 'a t -> 'a -> unit

  val contents : 'a t -> 'a list
  (** Stored values in push order.  The most recently pushed value is
      always included (appended when the stride skipped it), so the
      result holds at most [capacity + 1] values. *)

  val stride : 'a t -> int
  (** Current sampling stride: 1 until the first decimation, then
      doubling on each. *)

  val pushed : 'a t -> int
  (** Total number of values ever pushed. *)
end

val enabled : unit -> bool

val enable : ?capacity:int -> unit -> unit
(** Start sampling (default per-domain ring capacity 2048).  Drops any
    previously recorded samples. *)

val disable : unit -> unit
val reset : unit -> unit

val with_label : string -> (unit -> 'a) -> 'a
(** Append a context segment (e.g. ["rung=61"]) to the ambient label of
    the current domain for the duration of the callback.  Free (one
    atomic load and branch) when the sampler is disabled. *)

val set_bound : int -> unit
(** Publish the objective bound the current domain is attempting; [-1]
    clears it.  Free when the sampler is disabled. *)

val sample :
  conflicts:int ->
  decisions:int ->
  propagations:int ->
  restarts:int ->
  trail:int ->
  learnts:int ->
  learnt_core:int ->
  mean_lbd:float ->
  arena_words:int ->
  unit
(** Record one sample on the calling domain, stamped with {!Trace.now_us}
    and the ambient label/bound.  No-op when disabled (callers on hot
    paths should gate on {!enabled} to skip argument evaluation). *)

val samples : unit -> sample list
(** All recorded samples, grouped by ascending [tid], each domain's
    samples in (monotone) time order. *)

val to_events : unit -> Trace.event list
(** The samples as Chrome [`C] counter events named ["solver.sample"],
    for merging into a trace export ([Trace.write_chrome ~extra]) or a
    flight-recorder dump. *)
