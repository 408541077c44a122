(** CDCL Boolean-satisfiability solver.

    This is the reasoning engine the paper delegates to Z3: a conflict-driven
    clause-learning solver in the MiniSat lineage with two-watched-literal
    propagation, first-UIP conflict analysis with clause minimization, VSIDS
    branching, phase saving, Luby restarts and learnt-clause database
    reduction.  It solves incrementally under assumptions, which is what the
    optimization loop in {!Qxm_opt} uses to tighten cost bounds without
    re-encoding. *)

type t

type result =
  | Sat  (** A model was found; query it with {!value} / {!model}. *)
  | Unsat  (** No model exists under the given assumptions. *)
  | Unknown  (** Conflict budget or deadline exhausted. *)

val create : ?capacity:int -> unit -> t
(** [capacity] is a variable-count hint: every per-variable and
    per-literal structure (assignment, watch lists, heap index, and the
    clause arena) is pre-sized for that many variables, so encoding a
    problem of known size does one allocation per structure instead of a
    doubling cascade.  The hint is not a limit — [new_var] still grows
    storage on demand. *)

val reserve : t -> int -> unit
(** [reserve s n] pre-sizes storage for [n] variables (see [create]'s
    [?capacity]).  No-op when storage is already that large. *)

val new_var : t -> int
(** Allocate a fresh variable and return its index. *)

val nvars : t -> int
val nclauses : t -> int
(** Number of problem (non-learnt) clauses currently in the database. *)

val ok : t -> bool
(** [false] once the clause database is unsatisfiable at level 0; all
    subsequent [solve] calls return [Unsat] immediately. *)

val add_clause : t -> Lit.t list -> unit
(** Add a clause over existing variables.  Performs level-0 simplification
    (duplicate removal, tautology detection, falsified-literal stripping).
    @raise Invalid_argument if a literal mentions an unallocated variable. *)

val add_clause_buf : t -> Vec.Int.t -> unit
(** [add_clause] over a reusable literal buffer: same simplification and
    semantics, but the literals go straight from the buffer into the
    clause arena with no intermediate list.  The buffer is clobbered
    (sorted, deduplicated, stripped) — callers refill it per clause.
    This is the allocation-free path the encoder's buffered [Cnf.add]
    uses. *)

val solve :
  ?assumptions:Lit.t list ->
  ?conflict_limit:int ->
  ?deadline:float ->
  t ->
  result
(** Solve the current database.  [assumptions] are literals temporarily
    forced true for this call only.  [conflict_limit] bounds the total
    number of conflicts explored; [deadline] is an absolute
    [Unix.gettimeofday]-style timestamp.  Exceeding either yields
    [Unknown].  When a {!Fault} schedule is armed, the call may also
    return [Unknown] or run under a tighter conflict budget as that
    schedule dictates. *)

val value : t -> Lit.t -> bool
(** Value of a literal in the most recent model.
    @raise Invalid_argument if the last [solve] did not return [Sat]. *)

val model : t -> bool array
(** The most recent model, indexed by variable. *)

val unsat_core : t -> Lit.t list
(** After [solve ~assumptions] returned [Unsat]: a subset of the assumptions
    sufficient for unsatisfiability (negated internally and re-negated here,
    i.e. the returned literals are assumptions that conflict). *)

(** Search statistics, cumulative over the solver's lifetime. *)
type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learnt_literals : int;
  clock_polls : int;
      (** How often the budget check consulted the wall clock.  Deadline
          checks are memoized: the clock is polled at most once per 64
          conflicts (plus once at each [solve] entry), so this stays a
          tiny fraction of [conflicts]. *)
  minimized_lits : int;
      (** Literals dropped from learnt clauses by the recursive (or
          fallback basic) conflict-clause minimization. *)
  binary_propagations : int;
      (** Implications produced by the inline binary watch lists. *)
  subsumed_clauses : int;
      (** Learnt clauses deleted by inprocessing backward subsumption. *)
  vivified_clauses : int;
      (** Learnt clauses shortened by inprocessing vivification. *)
  glue_1 : int;  (** Learnt clauses with LBD 1 (at learn time). *)
  glue_2 : int;  (** LBD exactly 2 — with bucket 1, the permanent core. *)
  glue_3_4 : int;  (** LBD 3–4. *)
  glue_5_8 : int;  (** LBD 5–8. *)
  glue_9_plus : int;  (** LBD above 8 — the aggressively reduced tail. *)
  minor_words : int;
      (** OCaml minor-heap words allocated inside [solve] calls (measured
          via [Gc.minor_words] deltas).  With the flat clause arena the
          search loop allocates almost nothing, so
          [minor_words / propagations] should stay near zero — the bench
          gate holds it there. *)
  arena_collections : int;
      (** Copying collections of the clause arena (triggered when a
          quarter of it is garbage). *)
  arena_relocations : int;
      (** Clauses moved by arena collections, total. *)
}

val stats : t -> stats
(** Current cumulative statistics.  Reading also publishes the delta
    since the previous read into the {!Qxm_obs.Metrics} registry under
    [solver.*] counter names, so registry totals across any number of
    solver instances agree with {!add_stats}-style aggregation. *)

val zero_stats : stats
(** All-zero statistics — the unit of {!add_stats}. *)

val add_stats : stats -> stats -> stats
(** Field-wise sum, for aggregating over several solver instances (e.g.
    the mapper's candidate fan-out). *)

val sub_stats : stats -> stats -> stats
(** Field-wise difference, for reporting the delta of a long-lived
    solver since a watermark (e.g. one ladder rung of a reused mapper
    session, so per-stage aggregates do not double-count). *)

val stats_counters : stats -> (string * int) list
(** The stats record as an ordered [(field-name, value)] list — the
    canonical field enumeration shared by the metrics registry, JSON
    reports and tests.  New fields append at the end, so consumers of
    the prefix survive schema growth. *)

val arena_words : t -> int
(** Current size of the clause arena in words (a gauge, not a counter —
    published to the registry as [solver.arena_words] on each stats
    flush). *)

(** A progress tick: cumulative search totals plus instantaneous search
    state — current trail depth, live learnt clauses and how many sit in
    the core (glue ≤ 2) tier, the running mean LBD over all conflicts,
    and the clause-arena high-water mark in words.  New fields append at
    the end. *)
type progress = {
  pr_conflicts : int;
  pr_decisions : int;
  pr_propagations : int;
  pr_restarts : int;
  pr_trail : int;
  pr_learnts : int;
  pr_learnt_core : int;
  pr_mean_lbd : float;
  pr_arena_words : int;
}

val set_on_progress : t -> (progress -> unit) option -> unit
(** Install (or clear) a progress callback.  It fires on the same
    64-conflict cadence as the budget clock poll (plus once near the
    start of each [solve] call), so enabling it adds no extra clock
    reads to the inner loop.  The callback runs on the solving domain
    and must be fast and exception-free.

    On the same cadence — independently of any callback — the solver
    feeds one [Qxm_obs.Timeseries] sample per tick while that sampler is
    enabled; the disabled path costs one atomic load and branch. *)

val set_phase : t -> int -> bool -> unit
(** [set_phase s v b] seeds variable [v]'s saved phase: the next time the
    search branches on [v] it will try [b] first.  Out-of-range variables
    are ignored.  Phases only steer the search order — they never affect
    soundness or completeness. *)

val set_stop : t -> bool Atomic.t option -> unit
(** Install (or clear, with [None]) an external stop flag.  The flag is
    read on every budget check; once it is [true] the current and any
    subsequent [solve] call returns [Unknown] promptly.  This is the
    cooperative-cancellation hook used by a supervisor's token — the
    flag is shared via [Qxm_par.Cancel]. *)

val enable_proof : t -> unit
(** Start DRUP proof logging: every clause added from now on is recorded
    as an input, every learnt clause as a proof step, clause deletions
    (database reduction, subsumption, vivification) as {!Proof.Delete}
    steps, and an assumption-free [Unsat] answer ends the trace with the
    empty clause.  Enable before adding clauses. *)

val proof : t -> Proof.t option
(** The trace so far ([None] unless logging was enabled).  Checkable with
    {!Proof.check} once a solve returned [Unsat] without assumptions —
    assumption-based UNSAT answers do not end in the empty clause. *)

(** {1 Invariant sanitizer}

    An optional runtime audit of the solver's core data structures, used by
    the lint layer ([qxmap --sanitize]) and the test suite.  When enabled,
    every {!solve} call checks the invariants on entry and exit and raises
    {!Invariant_violation} if any are broken. *)

exception Invariant_violation of string
(** Raised by a sanitized {!solve} when {!check_invariants} reports
    issues; the payload concatenates all findings. *)

val set_sanitize_all : bool -> unit
(** Globally enable/disable sanitization for every solver instance
    (the [--sanitize] CLI flag and the test suite use this). *)

val set_sanitize : t -> bool -> unit
(** Enable/disable sanitization for one solver instance. *)

val check_invariants : t -> (string * string) list
(** Audit the solver right now, at any decision level, without mutating it.
    Returns [(area, message)] pairs with [area] one of ["trail"] (trail and
    decision-level consistency), ["watch"] (two-watched-literal
    bookkeeping), ["heap"] (VSIDS heap well-formedness), ["arena"]
    (clause-arena header structure, cref validity of clause lists /
    watch lists / reasons, and reason slot-0 discipline).  Empty means
    every audited invariant holds. *)

(** Seeded-corruption hooks for the sanitizer's mutation tests.  Each call
    deliberately breaks one invariant family so tests can prove
    {!check_invariants} detects it; returns [false] when the solver is too
    small to corrupt.  Never use outside tests. *)
module Testing : sig
  val corrupt_watch : t -> bool
  (** Drop one entry from a non-empty watch list. *)

  val corrupt_trail : t -> bool
  (** Push a duplicate (or unassigned) literal onto the trail. *)

  val corrupt_heap : t -> bool
  (** Inflate a leaf variable's activity without restoring heap order
      (needs at least two heap members). *)

  val corrupt_arena : t -> bool
  (** Set an illegal header flag on the first arena clause so the
      ["arena"] audit reports it; [false] when no clause exists. *)

  val compact : t -> unit
  (** Force a copying collection of the clause arena right now,
      regardless of the garbage fraction — the relocation round-trip
      tests use this to exercise cref remapping deterministically. *)

  val inprocess : t -> unit
  (** Run one inprocessing pass (backward subsumption + vivification over
      the learnt database) right now, at decision level 0.  The search
      triggers the same pass at restart boundaries; this hook exists so
      tests can exercise it deterministically on a prepared solver. *)
end
