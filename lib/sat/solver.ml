(* CDCL solver in the MiniSat lineage with the Glucose-style refinements
   that matter on the paper's instances: LBD ("glue") tiered clause-database
   management, recursive learnt-clause minimization, inline binary watch
   lists, and restart-boundary inprocessing (backward subsumption + clause
   vivification).  Comments mark where we deviate from the published
   MiniSat 2.2 / Glucose algorithms.

   Data layout: clauses live in a flat int-packed {!Arena} — a clause
   reference (cref) is a word offset, literals are read with plain
   int-array indexing, and watch lists are flat {!Vec.Pair} vectors
   ((cref, blocker) for long clauses, (other-lit, cref) for binary
   ones).  The propagation loop therefore chases no pointers and
   allocates nothing; clause deletion is lazy (a header flag) and the
   arena is compacted by a copying collection ([garbage_collect]) that
   remaps every root the solver holds: clause lists, watch lists and
   the reason array.

   Observability: every [solve] runs inside a [Qxm_obs.Trace] span (a
   single branch when tracing is off), restart boundaries emit instant
   events, and inprocessing / database reduction get their own spans.
   Statistics flow into the [Qxm_obs.Metrics] registry through a
   watermark flush (see [flush_metrics]) so per-worker solver instances
   merge into process-wide counters without touching the hot path. *)

module Trace = Qxm_obs.Trace
module Metrics = Qxm_obs.Metrics
module Timeseries = Qxm_obs.Timeseries

type result = Sat | Unsat | Unknown

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learnt_literals : int;
  clock_polls : int;
  minimized_lits : int;
  binary_propagations : int;
  subsumed_clauses : int;
  vivified_clauses : int;
  glue_1 : int;
  glue_2 : int;
  glue_3_4 : int;
  glue_5_8 : int;
  glue_9_plus : int;
  minor_words : int;
  arena_collections : int;
  arena_relocations : int;
}

let zero_stats =
  {
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    learnt_literals = 0;
    clock_polls = 0;
    minimized_lits = 0;
    binary_propagations = 0;
    subsumed_clauses = 0;
    vivified_clauses = 0;
    glue_1 = 0;
    glue_2 = 0;
    glue_3_4 = 0;
    glue_5_8 = 0;
    glue_9_plus = 0;
    minor_words = 0;
    arena_collections = 0;
    arena_relocations = 0;
  }

let add_stats a b =
  {
    conflicts = a.conflicts + b.conflicts;
    decisions = a.decisions + b.decisions;
    propagations = a.propagations + b.propagations;
    restarts = a.restarts + b.restarts;
    learnt_literals = a.learnt_literals + b.learnt_literals;
    clock_polls = a.clock_polls + b.clock_polls;
    minimized_lits = a.minimized_lits + b.minimized_lits;
    binary_propagations = a.binary_propagations + b.binary_propagations;
    subsumed_clauses = a.subsumed_clauses + b.subsumed_clauses;
    vivified_clauses = a.vivified_clauses + b.vivified_clauses;
    glue_1 = a.glue_1 + b.glue_1;
    glue_2 = a.glue_2 + b.glue_2;
    glue_3_4 = a.glue_3_4 + b.glue_3_4;
    glue_5_8 = a.glue_5_8 + b.glue_5_8;
    glue_9_plus = a.glue_9_plus + b.glue_9_plus;
    minor_words = a.minor_words + b.minor_words;
    arena_collections = a.arena_collections + b.arena_collections;
    arena_relocations = a.arena_relocations + b.arena_relocations;
  }

let sub_stats a b =
  {
    conflicts = a.conflicts - b.conflicts;
    decisions = a.decisions - b.decisions;
    propagations = a.propagations - b.propagations;
    restarts = a.restarts - b.restarts;
    learnt_literals = a.learnt_literals - b.learnt_literals;
    clock_polls = a.clock_polls - b.clock_polls;
    minimized_lits = a.minimized_lits - b.minimized_lits;
    binary_propagations = a.binary_propagations - b.binary_propagations;
    subsumed_clauses = a.subsumed_clauses - b.subsumed_clauses;
    vivified_clauses = a.vivified_clauses - b.vivified_clauses;
    glue_1 = a.glue_1 - b.glue_1;
    glue_2 = a.glue_2 - b.glue_2;
    glue_3_4 = a.glue_3_4 - b.glue_3_4;
    glue_5_8 = a.glue_5_8 - b.glue_5_8;
    glue_9_plus = a.glue_9_plus - b.glue_9_plus;
    minor_words = a.minor_words - b.minor_words;
    arena_collections = a.arena_collections - b.arena_collections;
    arena_relocations = a.arena_relocations - b.arena_relocations;
  }

(* Canonical (name, value) enumeration of the counters — the bridge
   between the record (field-wise [add_stats]) and the metrics registry
   (atomic merge).  The two aggregation routes must agree; a test holds
   them to it.  New fields append at the end so older consumers of the
   prefix keep their positions. *)
let stats_counters st =
  [
    ("conflicts", st.conflicts);
    ("decisions", st.decisions);
    ("propagations", st.propagations);
    ("restarts", st.restarts);
    ("learnt_literals", st.learnt_literals);
    ("clock_polls", st.clock_polls);
    ("minimized_lits", st.minimized_lits);
    ("binary_propagations", st.binary_propagations);
    ("subsumed_clauses", st.subsumed_clauses);
    ("vivified_clauses", st.vivified_clauses);
    ("glue_1", st.glue_1);
    ("glue_2", st.glue_2);
    ("glue_3_4", st.glue_3_4);
    ("glue_5_8", st.glue_5_8);
    ("glue_9_plus", st.glue_9_plus);
    ("minor_words", st.minor_words);
    ("arena_collections", st.arena_collections);
    ("arena_relocations", st.arena_relocations);
  ]

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

type t = {
  mutable nvars : int;
  mutable assign : Bytes.t; (* per var: 0 undef, 1 true, 2 false *)
  mutable level : int array;
  mutable reason : int array; (* cref per var; Arena.cref_undef = none *)
  mutable activity : float array;
  mutable polarity : Bytes.t; (* saved phase: 1 = last assigned true *)
  mutable seen : Bytes.t;
  mutable arena : Arena.t; (* all clause storage *)
  mutable watches : Vec.Pair.t array; (* per literal: (cref, blocker) *)
  mutable bin_watches : Vec.Pair.t array; (* per literal: (other, cref) *)
  clauses : Vec.Int.t; (* problem clause crefs *)
  learnts : Vec.Int.t; (* learnt clause crefs *)
  trail : Vec.Int.t;
  trail_lim : Vec.Int.t;
  mutable qhead : int;
  order : Heap.t;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable ok : bool;
  mutable model : bool array;
  mutable has_model : bool;
  mutable conflict_core : Lit.t list;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable learnt_literals : int;
  mutable minimized_lits : int;
  mutable binary_propagations : int;
  mutable subsumed_clauses : int;
  mutable vivified_clauses : int;
  mutable minor_words : int; (* minor-heap words allocated inside solve *)
  mutable arena_collections : int;
  mutable arena_relocations : int;
  mutable glue_hist : int array; (* buckets: 1, 2, 3-4, 5-8, >8 *)
  mutable lbd_sum : int; (* sum of learnt-clause LBDs, for the mean *)
  mutable num_core : int; (* learnt clauses exempt from deletion *)
  mutable mid_budget : float; (* mid-tier capacity, grows geometrically *)
  mutable max_learnts : float;
  mutable lbd_stamp : int;
  mutable lbd_mark : int array; (* per decision level, stamped *)
  mutable assumptions : Lit.t array;
  analyze_toclear : Vec.Int.t;
  analyze_stack : Vec.Int.t;
  out_learnt : Vec.Int.t; (* analyze scratch: first-UIP clause *)
  minimized : Vec.Int.t; (* analyze scratch: minimized clause *)
  lit_buf : Vec.Int.t; (* add_clause scratch *)
  mutable logging : bool;
  mutable proof_inputs : Lit.t array list; (* reversed *)
  mutable proof_steps : Proof.step list; (* reversed *)
  mutable sanitize : bool;
  mutable stop : bool Atomic.t option; (* cooperative cancellation flag *)
  mutable clock_polls : int;
  mutable last_clock_poll : int; (* conflict count at the last clock poll *)
  mutable budget_hit : bool; (* latched by out_of_budget until next solve *)
  mutable on_progress : (progress -> unit) option;
  mutable last_progress : int; (* conflict count at the last progress tick *)
  mutable last_flushed : stats; (* registry watermark; see flush_metrics *)
}

let var_decay = 1.0 /. 0.95
let cla_decay = 1.0 /. 0.999

(* Tier boundaries and inprocessing budgets.  Core clauses (glue <= 2)
   are kept forever; mid-tier clauses (glue <= [mid_lbd]) survive while
   they fit a geometric budget; everything else is the local tier, halved
   on every reduction.  Inprocessing runs every [inprocess_interval]
   restarts under explicit work budgets (propagation counts, not wall
   clock: the clock is never polled here). *)
let mid_lbd = 6
let inprocess_interval = 10
let subsume_budget = 40_000
let vivify_budget = 30_000

(* -- storage growth ------------------------------------------------------- *)

let grow_bytes b n =
  if Bytes.length b >= n then b
  else begin
    let b' = Bytes.make (max n (2 * max 1 (Bytes.length b))) '\000' in
    Bytes.blit b 0 b' 0 (Bytes.length b);
    b'
  end

let grow_array a n default =
  if Array.length a >= n then a
  else begin
    let a' = Array.make (max n (2 * max 1 (Array.length a))) default in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

(* Grow a watch array to [n] literal slots, reusing the existing lists. *)
let grow_watch_array w n =
  if Array.length w >= n then w
  else
    Array.init
      (max n (2 * max 1 (Array.length w)))
      (fun i -> if i < Array.length w then w.(i) else Vec.Pair.create ())

(* Pre-size every per-variable and per-literal structure for [n]
   variables, so a caller that knows the encoding size up front (the
   [~capacity] hint of [create]) pays one allocation per structure
   instead of a doubling cascade during [new_var]. *)
let reserve s n =
  if n > 0 then begin
    s.assign <- grow_bytes s.assign n;
    s.polarity <- grow_bytes s.polarity n;
    s.seen <- grow_bytes s.seen n;
    s.level <- grow_array s.level n 0;
    s.reason <- grow_array s.reason n Arena.cref_undef;
    s.activity <- grow_array s.activity n 0.0;
    s.lbd_mark <- grow_array s.lbd_mark (n + 1) 0;
    s.watches <- grow_watch_array s.watches (2 * n);
    s.bin_watches <- grow_watch_array s.bin_watches (2 * n);
    Heap.grow s.order n
  end

let create ?(capacity = 0) () =
  let s =
    {
      nvars = 0;
      assign = Bytes.create 0;
      level = [||];
      reason = [||];
      activity = [||];
      polarity = Bytes.create 0;
      seen = Bytes.create 0;
      arena = Arena.create ~capacity:(max 1024 (16 * capacity)) ();
      watches = [||];
      bin_watches = [||];
      clauses = Vec.Int.create ();
      learnts = Vec.Int.create ();
      trail = Vec.Int.create ();
      trail_lim = Vec.Int.create ();
      qhead = 0;
      order = Heap.create ();
      var_inc = 1.0;
      cla_inc = 1.0;
      ok = true;
      model = [||];
      has_model = false;
      conflict_core = [];
      conflicts = 0;
      decisions = 0;
      propagations = 0;
      restarts = 0;
      learnt_literals = 0;
      minimized_lits = 0;
      binary_propagations = 0;
      subsumed_clauses = 0;
      vivified_clauses = 0;
      minor_words = 0;
      arena_collections = 0;
      arena_relocations = 0;
      glue_hist = Array.make 5 0;
      lbd_sum = 0;
      num_core = 0;
      mid_budget = 2000.0;
      max_learnts = 0.0;
      lbd_stamp = 0;
      lbd_mark = [||];
      assumptions = [||];
      analyze_toclear = Vec.Int.create ();
      analyze_stack = Vec.Int.create ();
      out_learnt = Vec.Int.create ();
      minimized = Vec.Int.create ();
      lit_buf = Vec.Int.create ();
      logging = false;
      proof_inputs = [];
      proof_steps = [];
      sanitize = false;
      stop = None;
      clock_polls = 0;
      last_clock_poll = 0;
      budget_hit = false;
      on_progress = None;
      last_progress = 0;
      last_flushed = zero_stats;
    }
  in
  if capacity > 0 then reserve s capacity;
  s

let set_stop s flag = s.stop <- flag
let set_on_progress s cb = s.on_progress <- cb

let sanitize_all = ref false
let set_sanitize_all b = sanitize_all := b
let set_sanitize s b = s.sanitize <- b
let sanitizing s = s.sanitize || !sanitize_all

exception Invariant_violation of string

let enable_proof s = s.logging <- true

let log_learn s lits =
  if s.logging then s.proof_steps <- Proof.Learn lits :: s.proof_steps

let log_delete s lits =
  if s.logging then s.proof_steps <- Proof.Delete lits :: s.proof_steps

let proof s =
  if not s.logging then None
  else
    Some
      {
        Proof.inputs = List.rev s.proof_inputs;
        steps = List.rev s.proof_steps;
      }
let nvars s = s.nvars
let nclauses s = Vec.Int.size s.clauses
let ok s = s.ok
let arena_words s = Arena.top s.arena

let current_stats s =
  {
    conflicts = s.conflicts;
    decisions = s.decisions;
    propagations = s.propagations;
    restarts = s.restarts;
    learnt_literals = s.learnt_literals;
    clock_polls = s.clock_polls;
    minimized_lits = s.minimized_lits;
    binary_propagations = s.binary_propagations;
    subsumed_clauses = s.subsumed_clauses;
    vivified_clauses = s.vivified_clauses;
    glue_1 = s.glue_hist.(0);
    glue_2 = s.glue_hist.(1);
    glue_3_4 = s.glue_hist.(2);
    glue_5_8 = s.glue_hist.(3);
    glue_9_plus = s.glue_hist.(4);
    minor_words = s.minor_words;
    arena_collections = s.arena_collections;
    arena_relocations = s.arena_relocations;
  }

(* One registry counter per stat field, registered at start-up. *)
let registry_counters =
  List.map
    (fun (name, _) -> Metrics.counter ("solver." ^ name))
    (stats_counters zero_stats)

let arena_gauge = Metrics.gauge "solver.arena_words"

(* Publish the delta since the last flush into the metrics registry.
   The watermark (rather than per-[solve] entry/exit deltas) also
   captures work done outside [solve] — the level-0 propagations of
   [add_clause] during encoding — so the registry totals agree with the
   lifetime [stats] record however the calls interleave. *)
let flush_metrics s =
  let cur = current_stats s in
  List.iter2
    (fun ctr ((_, now), (_, seen)) ->
      if now > seen then Metrics.add ctr (now - seen))
    registry_counters
    (List.combine (stats_counters cur) (stats_counters s.last_flushed));
  Metrics.set_gauge arena_gauge (float_of_int (Arena.top s.arena));
  s.last_flushed <- cur;
  cur

let stats s = flush_metrics s

(* -- variable allocation ------------------------------------------------- *)

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  (* each grow is a no-op when [reserve] already sized the storage *)
  s.assign <- grow_bytes s.assign s.nvars;
  s.polarity <- grow_bytes s.polarity s.nvars;
  s.seen <- grow_bytes s.seen s.nvars;
  s.level <- grow_array s.level s.nvars 0;
  s.reason <- grow_array s.reason s.nvars Arena.cref_undef;
  s.activity <- grow_array s.activity s.nvars 0.0;
  s.lbd_mark <- grow_array s.lbd_mark (s.nvars + 1) 0;
  s.watches <- grow_watch_array s.watches (2 * s.nvars);
  s.bin_watches <- grow_watch_array s.bin_watches (2 * s.nvars);
  Heap.grow s.order s.nvars;
  Heap.push s.order v s.activity;
  v

(* -- assignment queries -------------------------------------------------- *)

(* lbool as int: 1 true, -1 false, 0 undef *)
let var_value s v =
  match Bytes.unsafe_get s.assign v with
  | '\001' -> 1
  | '\002' -> -1
  | _ -> 0

let lit_value s l =
  let v = var_value s (Lit.var l) in
  if Lit.sign l then v else -v

let decision_level s = Vec.Int.size s.trail_lim

(* -- activities ---------------------------------------------------------- *)

let var_rescale s =
  for v = 0 to s.nvars - 1 do
    s.activity.(v) <- s.activity.(v) *. 1e-100
  done;
  s.var_inc <- s.var_inc *. 1e-100

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then var_rescale s;
  Heap.decrease s.order v s.activity

let var_decay_all s = s.var_inc <- s.var_inc *. var_decay

let cla_bump s c =
  let a = s.arena in
  if Arena.bump_activity a c s.cla_inc then begin
    Vec.Int.iter
      (fun c -> Arena.set_activity a c (Arena.activity a c *. 1e-20))
      s.learnts;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let cla_decay_all s = s.cla_inc <- s.cla_inc *. cla_decay

(* -- LBD ("glue") --------------------------------------------------------- *)

(* Distinct decision levels among a clause's literals, stamped so no
   clearing pass is needed.  Level-0 literals do not count. *)
let lbd_of_clause s c =
  s.lbd_stamp <- s.lbd_stamp + 1;
  let stamp = s.lbd_stamp in
  let count = ref 0 in
  let n = Arena.size s.arena c in
  for i = 0 to n - 1 do
    let lv = s.level.(Lit.var (Arena.lit s.arena c i)) in
    if lv > 0 && s.lbd_mark.(lv) <> stamp then begin
      s.lbd_mark.(lv) <- stamp;
      incr count
    end
  done;
  max 1 !count

let lbd_of_vec s lits =
  s.lbd_stamp <- s.lbd_stamp + 1;
  let stamp = s.lbd_stamp in
  let count = ref 0 in
  Vec.Int.iter
    (fun l ->
      let lv = s.level.(Lit.var l) in
      if lv > 0 && s.lbd_mark.(lv) <> stamp then begin
        s.lbd_mark.(lv) <- stamp;
        incr count
      end)
    lits;
  max 1 !count

let glue_bucket lbd =
  if lbd <= 1 then 0
  else if lbd = 2 then 1
  else if lbd <= 4 then 2
  else if lbd <= 8 then 3
  else 4

(* A learnt clause is exempt from deletion: binary, or core glue. *)
let is_core s c =
  Arena.learnt s.arena c
  && (Arena.size s.arena c = 2 || Arena.lbd s.arena c <= 2)

(* -- clause attachment --------------------------------------------------- *)

let attach s c =
  let a = s.arena in
  let l0 = Arena.lit a c 0 and l1 = Arena.lit a c 1 in
  if Arena.size a c = 2 then begin
    (* binary watcher: the other literal inline, then the cref *)
    Vec.Pair.push s.bin_watches.(Lit.negate l0) l1 c;
    Vec.Pair.push s.bin_watches.(Lit.negate l1) l0 c
  end
  else begin
    (* long watcher: the cref, then the blocker *)
    Vec.Pair.push s.watches.(Lit.negate l0) c l1;
    Vec.Pair.push s.watches.(Lit.negate l1) c l0
  end

(* Eager watcher removal — only for clauses that may be re-attached
   (vivification).  Ordinary deletion is lazy: [remove_clause] flags the
   header and stale watchers are dropped by [propagate] or the next
   arena collection. *)
let detach s c =
  let a = s.arena in
  if Arena.size a c = 2 then begin
    let remove l =
      Vec.Pair.filter_in_place (fun _other cr -> cr <> c) s.bin_watches.(l)
    in
    remove (Lit.negate (Arena.lit a c 0));
    remove (Lit.negate (Arena.lit a c 1))
  end
  else begin
    let remove l =
      Vec.Pair.filter_in_place (fun cr _blocker -> cr <> c) s.watches.(l)
    in
    remove (Lit.negate (Arena.lit a c 0));
    remove (Lit.negate (Arena.lit a c 1))
  end

let locked s c =
  let l0 = Arena.lit s.arena c 0 in
  lit_value s l0 = 1 && s.reason.(Lit.var l0) = c

let remove_clause s c =
  let a = s.arena in
  (* Log the deletion so the proof checker can drop the clause too —
     except when the clause is satisfied at level 0: such a clause may
     be the checker-side reason of a top-level unit (or the source of
     the final conflict), so its deletion must stay unlogged to keep
     the trace replayable. *)
  if s.logging then begin
    let n = Arena.size a c in
    let sat0 = ref false in
    for i = 0 to n - 1 do
      let l = Arena.lit a c i in
      if lit_value s l = 1 && s.level.(Lit.var l) = 0 then sat0 := true
    done;
    if not !sat0 then log_delete s (Arena.lits a c)
  end;
  if is_core s c then s.num_core <- s.num_core - 1;
  if locked s c then s.reason.(Lit.var (Arena.lit a c 0)) <- Arena.cref_undef;
  Arena.set_deleted a c

(* -- arena compaction ----------------------------------------------------- *)

(* Copying collection: move every live clause into a fresh arena (in
   database order, which keeps locality) and remap every cref the solver
   holds — clause lists, the reason array, and both watch-list families.
   Watchers of deleted clauses forward to [cref_undef] and are dropped
   here, which is also where lazily deleted clauses finally disappear.
   Reason clauses are always locked, hence live, hence moved. *)
let garbage_collect s =
  let old = s.arena in
  let live = Arena.top old - Arena.wasted old in
  let into = Arena.create ~capacity:(max 1024 live) () in
  let relocated = ref 0 in
  let remap_db db =
    let j = ref 0 in
    for i = 0 to Vec.Int.size db - 1 do
      let c' = Arena.move old ~into (Vec.Int.get db i) in
      if c' <> Arena.cref_undef then begin
        Vec.Int.set db !j c';
        incr j;
        incr relocated
      end
    done;
    Vec.Int.shrink db !j
  in
  remap_db s.clauses;
  remap_db s.learnts;
  for v = 0 to s.nvars - 1 do
    let r = s.reason.(v) in
    if r <> Arena.cref_undef then s.reason.(v) <- Arena.forward old r
  done;
  Array.iter
    (fun ws ->
      Vec.Pair.map_in_place
        (fun c blocker ->
          let c' = Arena.forward old c in
          if c' = Arena.cref_undef then None else Some (c', blocker))
        ws)
    s.watches;
  Array.iter
    (fun bws ->
      Vec.Pair.map_in_place
        (fun other c ->
          let c' = Arena.forward old c in
          if c' = Arena.cref_undef then None else Some (other, c'))
        bws)
    s.bin_watches;
  s.arena <- into;
  s.arena_collections <- s.arena_collections + 1;
  s.arena_relocations <- s.arena_relocations + !relocated

(* Collect when at least a quarter of the arena is garbage (and enough
   of it to be worth the copy) — MiniSat's wasted/top policy. *)
let maybe_gc s =
  let w = Arena.wasted s.arena in
  if w > 1024 && 4 * w > Arena.top s.arena then garbage_collect s

(* -- enqueue / backtrack ------------------------------------------------- *)

let unchecked_enqueue s l reason =
  let v = Lit.var l in
  assert (var_value s v = 0);
  Bytes.unsafe_set s.assign v (if Lit.sign l then '\001' else '\002');
  Array.unsafe_set s.level v (decision_level s);
  Array.unsafe_set s.reason v reason;
  Vec.Int.push s.trail l

let new_decision_level s = Vec.Int.push s.trail_lim (Vec.Int.size s.trail)

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.Int.get s.trail_lim lvl in
    for i = Vec.Int.size s.trail - 1 downto bound do
      let l = Vec.Int.get s.trail i in
      let v = Lit.var l in
      Bytes.unsafe_set s.polarity v (if Lit.sign l then '\001' else '\000');
      Bytes.unsafe_set s.assign v '\000';
      Array.unsafe_set s.reason v Arena.cref_undef;
      Heap.push s.order v s.activity
    done;
    s.qhead <- bound;
    Vec.Int.shrink s.trail bound;
    Vec.Int.shrink s.trail_lim lvl
  end

(* -- propagation --------------------------------------------------------- *)

(* The hot loop.  [mem] is cached once: nothing inside allocates arena
   words, so the array is stable for the whole call.  Binary and long
   clauses run fully specialized paths — the binary path reads only the
   two watcher words unless it actually implies or conflicts; the long
   path reads the blocker word first and touches clause memory only when
   the blocker is not already satisfied.  Nothing here allocates on the
   OCaml heap. *)
let propagate s =
  let mem = Arena.mem s.arena in
  let confl = ref Arena.cref_undef in
  while !confl = Arena.cref_undef && s.qhead < Vec.Int.size s.trail do
    let p = Vec.Int.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    (* binary clauses first: the other literal is inline, so nothing
       beyond the watcher itself is touched on the satisfied path *)
    let bws = s.bin_watches.(p) in
    let bn = Vec.Pair.size bws in
    let bi = ref 0 in
    while !confl = Arena.cref_undef && !bi < bn do
      let other = Vec.Pair.unsafe_a bws !bi in
      let c = Vec.Pair.unsafe_b bws !bi in
      if Array.unsafe_get mem c land Arena.flag_deleted = 0 then begin
        match lit_value s other with
        | 1 -> ()
        | -1 ->
            confl := c;
            s.qhead <- Vec.Int.size s.trail
        | _ ->
            (* conflict analysis expects the implied literal in slot 0 *)
            if Array.unsafe_get mem (c + 3) <> other then begin
              Array.unsafe_set mem (c + 3) other;
              Array.unsafe_set mem (c + 4) (Lit.negate p)
            end;
            s.binary_propagations <- s.binary_propagations + 1;
            unchecked_enqueue s other c
      end;
      incr bi
    done;
    if !confl = Arena.cref_undef then begin
      let ws = s.watches.(p) in
      let i = ref 0 and j = ref 0 in
      let n = Vec.Pair.size ws in
      while !i < n do
        let c = Vec.Pair.unsafe_a ws !i in
        let blocker = Vec.Pair.unsafe_b ws !i in
        if lit_value s blocker = 1 then begin
          Vec.Pair.unsafe_set ws !j c blocker;
          incr j;
          incr i
        end
        else if Array.unsafe_get mem c land Arena.flag_deleted <> 0 then
          incr i (* lazily deleted: drop the stale watcher *)
        else begin
          let false_lit = Lit.negate p in
          if Array.unsafe_get mem (c + 3) = false_lit then begin
            Array.unsafe_set mem (c + 3) (Array.unsafe_get mem (c + 4));
            Array.unsafe_set mem (c + 4) false_lit
          end;
          incr i;
          let first = Array.unsafe_get mem (c + 3) in
          if first <> blocker && lit_value s first = 1 then begin
            Vec.Pair.unsafe_set ws !j c first;
            incr j
          end
          else begin
            (* search for a new literal to watch *)
            let len = Array.unsafe_get mem c lsr 3 in
            let k = ref 2 in
            let found = ref false in
            while (not !found) && !k < len do
              if lit_value s (Array.unsafe_get mem (c + 3 + !k)) <> -1 then
                found := true
              else incr k
            done;
            if !found then begin
              let l = Array.unsafe_get mem (c + 3 + !k) in
              Array.unsafe_set mem (c + 4) l;
              Array.unsafe_set mem (c + 3 + !k) false_lit;
              Vec.Pair.push s.watches.(Lit.negate l) c first
            end
            else begin
              Vec.Pair.unsafe_set ws !j c first;
              incr j;
              if lit_value s first = -1 then begin
                (* conflict: flush queue, keep remaining watchers *)
                confl := c;
                s.qhead <- Vec.Int.size s.trail;
                while !i < n do
                  Vec.Pair.unsafe_set ws !j (Vec.Pair.unsafe_a ws !i)
                    (Vec.Pair.unsafe_b ws !i);
                  incr j;
                  incr i
                done
              end
              else unchecked_enqueue s first c
            end
          end
        end
      done;
      Vec.Pair.shrink ws !j
    end
  done;
  !confl

(* -- clause addition ----------------------------------------------------- *)

(* Buffered clause insertion: normalize [v] in place (insertion sort,
   dedup, tautology check, falsified-literal strip) and emit straight
   into the arena — no intermediate lists, no allocation beyond the
   clause words themselves.  [v] is clobbered.  This is the path the
   encoder's [Cnf] buffer feeds. *)
let add_clause_buf s v =
  if s.ok then begin
    assert (decision_level s = 0);
    if s.logging then s.proof_inputs <- Vec.Int.to_array v :: s.proof_inputs;
    let n = Vec.Int.size v in
    for i = 0 to n - 1 do
      if Lit.var (Vec.Int.unsafe_get v i) >= s.nvars then
        invalid_arg "Solver.add_clause: unallocated variable"
    done;
    (* in-place insertion sort (clauses are tiny), then dedup *)
    for i = 1 to n - 1 do
      let x = Vec.Int.unsafe_get v i in
      let j = ref i in
      while !j > 0 && Vec.Int.unsafe_get v (!j - 1) > x do
        Vec.Int.unsafe_set v !j (Vec.Int.unsafe_get v (!j - 1));
        decr j
      done;
      Vec.Int.unsafe_set v !j x
    done;
    let m = ref 0 in
    for i = 0 to n - 1 do
      let x = Vec.Int.unsafe_get v i in
      if !m = 0 || Vec.Int.unsafe_get v (!m - 1) <> x then begin
        Vec.Int.unsafe_set v !m x;
        incr m
      end
    done;
    Vec.Int.shrink v !m;
    let tautology = ref false in
    for i = 1 to !m - 1 do
      let a = Vec.Int.unsafe_get v (i - 1) and b = Vec.Int.unsafe_get v i in
      if Lit.var a = Lit.var b && a <> b then tautology := true
    done;
    if not !tautology then begin
      let satisfied = ref false in
      let k = ref 0 in
      for i = 0 to !m - 1 do
        let l = Vec.Int.unsafe_get v i in
        match lit_value s l with
        | 1 -> satisfied := true
        | -1 -> () (* already false at level 0: strip *)
        | _ ->
            Vec.Int.unsafe_set v !k l;
            incr k
      done;
      if not !satisfied then begin
        Vec.Int.shrink v !k;
        match !k with
        | 0 ->
            s.ok <- false;
            log_learn s [||]
        | 1 ->
            unchecked_enqueue s (Vec.Int.get v 0) Arena.cref_undef;
            if propagate s <> Arena.cref_undef then begin
              s.ok <- false;
              log_learn s [||]
            end
        | _ ->
            let c = Arena.alloc_vec s.arena ~learnt:false ~lbd:0 v !k in
            Vec.Int.push s.clauses c;
            attach s c
      end
    end
  end

let add_clause s lits =
  Vec.Int.clear s.lit_buf;
  List.iter (fun l -> Vec.Int.push s.lit_buf l) lits;
  add_clause_buf s s.lit_buf

(* -- conflict analysis --------------------------------------------------- *)

let seen_get s v = Bytes.unsafe_get s.seen v = '\001'
let seen_set s v b =
  Bytes.unsafe_set s.seen v (if b then '\001' else '\000')

(* A learnt literal is redundant if its reason clause exists and every other
   literal of that reason is already seen or assigned at level 0.  This is
   MiniSat's "basic" (non-recursive) minimization, kept as the cheap
   fallback for very large learnt clauses. *)
let lit_redundant_basic s q =
  let c = s.reason.(Lit.var q) in
  if c = Arena.cref_undef then false
  else begin
    let ok = ref true in
    let n = Arena.size s.arena c in
    for i = 0 to n - 1 do
      let r = Arena.lit s.arena c i in
      let v = Lit.var r in
      if v <> Lit.var q && s.level.(v) > 0 && not (seen_get s v) then
        ok := false
    done;
    !ok
  end

let abstract_level s v = 1 lsl (s.level.(v) land 31)

(* MiniSat's recursive litRedundant: walk the implication graph below [q];
   [q] is redundant if every path bottoms out in seen literals (i.e. other
   learnt-clause literals) or level 0.  [abstract_levels] is a cheap
   level-set filter that aborts paths leaving the clause's levels.  On
   failure the speculative marks above [top] are rolled back. *)
let lit_redundant_rec s q abstract_levels =
  Vec.Int.clear s.analyze_stack;
  Vec.Int.push s.analyze_stack q;
  let top = Vec.Int.size s.analyze_toclear in
  let ok = ref true in
  while !ok && Vec.Int.size s.analyze_stack > 0 do
    let p = Vec.Int.pop s.analyze_stack in
    let c = s.reason.(Lit.var p) in
    assert (c <> Arena.cref_undef) (* only literals with reasons are pushed *);
    let n = Arena.size s.arena c in
    for i = 0 to n - 1 do
      let r = Arena.lit s.arena c i in
      let v = Lit.var r in
      if !ok && v <> Lit.var p && (not (seen_get s v)) && s.level.(v) > 0
      then begin
        if
          s.reason.(v) <> Arena.cref_undef
          && abstract_level s v land abstract_levels <> 0
        then begin
          seen_set s v true;
          Vec.Int.push s.analyze_stack r;
          Vec.Int.push s.analyze_toclear v
        end
        else begin
          for j = top to Vec.Int.size s.analyze_toclear - 1 do
            seen_set s (Vec.Int.get s.analyze_toclear j) false
          done;
          Vec.Int.shrink s.analyze_toclear top;
          ok := false
        end
      end
    done
  done;
  !ok

(* Above this learnt-clause size the recursive minimization falls back to
   the basic one-step check: the deep walk's worst case is quadratic in
   practice only on huge clauses, which are poor clauses anyway. *)
let deep_minimize_max = 30

(* First-UIP conflict analysis.  [out_learnt] and [minimized] are solver
   scratch vectors: the returned vector is valid until the next call. *)
let analyze s confl =
  let out_learnt = s.out_learnt in
  Vec.Int.clear out_learnt;
  Vec.Int.push out_learnt 0 (* slot for the asserting literal *);
  Vec.Int.clear s.analyze_toclear;
  let path_c = ref 0 in
  let p = ref (-1) (* undef *) in
  let index = ref (Vec.Int.size s.trail - 1) in
  let confl = ref confl in
  let continue = ref true in
  while !continue do
    let c = !confl in
    assert (c <> Arena.cref_undef)
    (* every visited literal has a reason here *);
    if Arena.learnt s.arena c then begin
      cla_bump s c;
      (* update-on-use: a clause whose glue drops is promoted, possibly
         into the permanent core tier *)
      if Arena.lbd s.arena c > 2 then begin
        let nl = lbd_of_clause s c in
        if nl < Arena.lbd s.arena c then begin
          if nl <= 2 && Arena.size s.arena c > 2 then
            s.num_core <- s.num_core + 1;
          Arena.set_lbd s.arena c nl
        end
      end
    end;
    let n = Arena.size s.arena c in
    for ii = 0 to n - 1 do
      let q = Arena.lit s.arena c ii in
      if q <> !p then begin
        let v = Lit.var q in
        if (not (seen_get s v)) && s.level.(v) > 0 then begin
          var_bump s v;
          seen_set s v true;
          Vec.Int.push s.analyze_toclear v;
          if s.level.(v) >= decision_level s then incr path_c
          else Vec.Int.push out_learnt q
        end
      end
    done;
    (* select next literal on the trail to expand *)
    while not (seen_get s (Lit.var (Vec.Int.get s.trail !index))) do
      decr index
    done;
    p := Vec.Int.get s.trail !index;
    decr index;
    confl := s.reason.(Lit.var !p);
    seen_set s (Lit.var !p) false;
    decr path_c;
    if !path_c <= 0 then continue := false
  done;
  Vec.Int.set out_learnt 0 (Lit.negate !p);
  (* minimize: drop redundant non-asserting literals, recursively up to
     [deep_minimize_max] literals, with the basic check beyond *)
  let abstract_levels = ref 0 in
  for i = 1 to Vec.Int.size out_learnt - 1 do
    abstract_levels :=
      !abstract_levels
      lor abstract_level s (Lit.var (Vec.Int.get out_learnt i))
  done;
  let deep = Vec.Int.size out_learnt <= deep_minimize_max in
  let minimized = s.minimized in
  Vec.Int.clear minimized;
  Vec.Int.push minimized (Vec.Int.get out_learnt 0);
  for i = 1 to Vec.Int.size out_learnt - 1 do
    let q = Vec.Int.get out_learnt i in
    let redundant =
      s.reason.(Lit.var q) <> Arena.cref_undef
      &&
      if deep then lit_redundant_rec s q !abstract_levels
      else lit_redundant_basic s q
    in
    if not redundant then Vec.Int.push minimized q
  done;
  s.minimized_lits <-
    s.minimized_lits + (Vec.Int.size out_learnt - Vec.Int.size minimized);
  (* compute backtrack level and move the max-level literal to slot 1 *)
  let bt_level =
    if Vec.Int.size minimized = 1 then 0
    else begin
      let max_i = ref 1 in
      for i = 2 to Vec.Int.size minimized - 1 do
        if
          s.level.(Lit.var (Vec.Int.get minimized i))
          > s.level.(Lit.var (Vec.Int.get minimized !max_i))
        then max_i := i
      done;
      let tmp = Vec.Int.get minimized !max_i in
      Vec.Int.set minimized !max_i (Vec.Int.get minimized 1);
      Vec.Int.set minimized 1 tmp;
      s.level.(Lit.var tmp)
    end
  in
  (* glue is computed before backjumping, while levels are still live *)
  let lbd = lbd_of_vec s minimized in
  Vec.Int.iter (fun v -> seen_set s v false) s.analyze_toclear;
  (minimized, bt_level, lbd)

(* Which assumptions force the conflict when assumption [p] is already
   false: walk the implication graph rooted at p down to decisions.  The
   walk collects falsified literals; the stored core re-negates them so
   [unsat_core] hands back the conflicting assumptions themselves. *)
let analyze_final s p =
  let out = ref [ p ] in
  if decision_level s > 0 then begin
    seen_set s (Lit.var p) true;
    let lim = Vec.Int.get s.trail_lim 0 in
    for i = Vec.Int.size s.trail - 1 downto lim do
      let l = Vec.Int.get s.trail i in
      let v = Lit.var l in
      if seen_get s v then begin
        let r = s.reason.(v) in
        (if r = Arena.cref_undef then out := Lit.negate l :: !out
         else
           let n = Arena.size s.arena r in
           for k = 0 to n - 1 do
             let q = Arena.lit s.arena r k in
             if s.level.(Lit.var q) > 0 then seen_set s (Lit.var q) true
           done);
        seen_set s v false
      end
    done;
    seen_set s (Lit.var p) false
  end;
  s.conflict_core <- List.rev_map Lit.negate !out

(* -- learnt database reduction ------------------------------------------- *)

let recount_core s =
  let n = ref 0 in
  Vec.Int.iter
    (fun c -> if (not (Arena.deleted s.arena c)) && is_core s c then incr n)
    s.learnts;
  s.num_core <- !n

(* Three-tier reduction: binary and core-glue clauses are permanent; the
   mid tier (glue <= mid_lbd) survives while it fits [mid_budget] (which
   grows geometrically, so a useful mid tier is eventually kept whole);
   overflow is demoted to the local tier, which loses its worse-activity
   half on every reduction. *)
let reduce_db s =
  let a = s.arena in
  let kept = Vec.Int.create () in
  let mid = Vec.Int.create () in
  let local = Vec.Int.create () in
  let before = ref 0 in
  Vec.Int.iter
    (fun c ->
      if not (Arena.deleted a c) then begin
        incr before;
        if is_core s c || locked s c then Vec.Int.push kept c
        else if Arena.lbd a c <= mid_lbd then Vec.Int.push mid c
        else Vec.Int.push local c
      end)
    s.learnts;
  let budget = int_of_float s.mid_budget in
  if Vec.Int.size mid > budget then begin
    Vec.Int.sort
      (fun x y ->
        let lx = Arena.lbd a x and ly = Arena.lbd a y in
        if lx <> ly then compare lx ly
        else compare (Arena.activity_bits a y) (Arena.activity_bits a x))
      mid;
    for i = budget to Vec.Int.size mid - 1 do
      Vec.Int.push local (Vec.Int.get mid i)
    done;
    Vec.Int.shrink mid budget
  end;
  Vec.Int.iter (fun c -> Vec.Int.push kept c) mid;
  Vec.Int.sort
    (fun x y -> compare (Arena.activity_bits a x) (Arena.activity_bits a y))
    local;
  let nloc = Vec.Int.size local in
  let drop = nloc / 2 in
  for i = 0 to nloc - 1 do
    let c = Vec.Int.get local i in
    if i < drop then remove_clause s c else Vec.Int.push kept c
  done;
  Vec.Int.clear s.learnts;
  Vec.Int.iter (fun c -> Vec.Int.push s.learnts c) kept;
  recount_core s;
  s.mid_budget <- s.mid_budget *. 1.1;
  (* the permanent tiers do not shrink: if this pass freed almost
     nothing, raise the trigger so it does not fire again immediately *)
  if 10 * drop < !before then s.max_learnts <- s.max_learnts *. 1.2;
  maybe_gc s

let clause_satisfied s c =
  let n = Arena.size s.arena c in
  let sat = ref false in
  for i = 0 to n - 1 do
    if lit_value s (Arena.lit s.arena c i) = 1 then sat := true
  done;
  !sat

let remove_satisfied s db =
  let j = ref 0 in
  for i = 0 to Vec.Int.size db - 1 do
    let c = Vec.Int.get db i in
    if Arena.deleted s.arena c then () (* already gone: drop the ref *)
    else if clause_satisfied s c then remove_clause s c
    else begin
      Vec.Int.set db !j c;
      incr j
    end
  done;
  Vec.Int.shrink db !j

(* -- inprocessing --------------------------------------------------------- *)

(* Backward subsumption over the learnt database: a clause deletes every
   live learnt superset of itself.  Signatures prune most candidate pairs;
   the scan walks the occurrence list of the rarest literal.  Deletions
   flow through [remove_clause], which logs a [Proof.Delete] step when a
   trace is being recorded; the budget counts literal comparisons, so no
   clock is involved. *)
let backward_subsume s =
  let a = s.arena in
  (* snapshot the live learnt clauses into a flat cref array; literals
     are read straight out of the arena below, so no per-clause literal
     array is ever materialized *)
  let n_live = ref 0 in
  Vec.Int.iter
    (fun c -> if not (Arena.deleted a c) then incr n_live)
    s.learnts;
  let ncls = !n_live in
  if ncls > 1 then begin
    let cls = Array.make ncls 0 in
    let k = ref 0 in
    Vec.Int.iter
      (fun c ->
        if not (Arena.deleted a c) then begin
          cls.(!k) <- c;
          incr k
        end)
      s.learnts;
    let signature c =
      let acc = ref 0 in
      for i = 0 to Arena.size a c - 1 do
        acc := !acc lor (1 lsl (Arena.lit a c i mod 62))
      done;
      !acc
    in
    let sigs = Array.map signature cls in
    (* occurrence lists in CSR form: occ_clause.(occ_start.(l) ..
       occ_start.(l+1)-1) holds the [cls] indices of the clauses that
       contain literal [l], in ascending index order — two flat int
       arrays instead of 2*nvars cons lists *)
    let occ_start = Array.make ((2 * s.nvars) + 1) 0 in
    Array.iter
      (fun c ->
        for i = 0 to Arena.size a c - 1 do
          let l = Arena.lit a c i in
          occ_start.(l + 1) <- occ_start.(l + 1) + 1
        done)
      cls;
    for l = 1 to 2 * s.nvars do
      occ_start.(l) <- occ_start.(l) + occ_start.(l - 1)
    done;
    let occ_clause = Array.make (max occ_start.(2 * s.nvars) 1) 0 in
    let fill = Array.copy occ_start in
    Array.iteri
      (fun ci c ->
        for i = 0 to Arena.size a c - 1 do
          let l = Arena.lit a c i in
          occ_clause.(fill.(l)) <- ci;
          fill.(l) <- fill.(l) + 1
        done)
      cls;
    let occ_len l = occ_start.(l + 1) - occ_start.(l) in
    let order = Array.init ncls Fun.id in
    Array.sort
      (fun x y -> compare (Arena.size a cls.(x)) (Arena.size a cls.(y)))
      order;
    let budget = ref subsume_budget in
    let mem l c =
      let n = Arena.size a c in
      let i = ref 0 in
      let found = ref false in
      while (not !found) && !i < n do
        if Arena.lit a c !i = l then found := true;
        incr i
      done;
      !found
    in
    let subset small big =
      let n = Arena.size a small in
      let i = ref 0 in
      let ok = ref true in
      while !ok && !i < n do
        if not (mem (Arena.lit a small !i) big) then ok := false;
        incr i
      done;
      !ok
    in
    Array.iter
      (fun ci ->
        let c = cls.(ci) in
        if (not (Arena.deleted a c)) && Arena.size a c <= 16 && !budget > 0
        then begin
          let min_lit = ref (Arena.lit a c 0) in
          for i = 0 to Arena.size a c - 1 do
            let l = Arena.lit a c i in
            if occ_len l < occ_len !min_lit then min_lit := l
          done;
          for oi = occ_start.(!min_lit) to occ_start.(!min_lit + 1) - 1 do
            let di = occ_clause.(oi) in
            let d = cls.(di) in
            if
              di <> ci
              && (not (Arena.deleted a d))
              && !budget > 0
              && Arena.size a d >= Arena.size a c
              && sigs.(ci) land lnot sigs.(di) = 0
            then begin
              budget := !budget - Arena.size a d - Arena.size a c;
              if subset c d && not (locked s d) then begin
                remove_clause s d;
                s.subsumed_clauses <- s.subsumed_clauses + 1
              end
            end
          done
        end)
      order
  end

(* Vivify one learnt clause (already detached, level 0): assume the
   negation of each literal in turn; a conflict, an implied-true literal,
   or an implied-false literal all shorten the clause.  The shortened
   clause is reverse-unit-propagation derivable from the rest of the
   database, so it is logged like any learnt clause. *)
type vivify_outcome = V_unchanged | V_shortened of Lit.t list | V_satisfied

let vivify_clause s c =
  new_decision_level s;
  let kept = ref [] in
  let nkept = ref 0 in
  let stop = ref false in
  let satisfied = ref false in
  let len = Arena.size s.arena c in
  let i = ref 0 in
  while (not !stop) && !i < len do
    let l = Arena.lit s.arena c !i in
    (match lit_value s l with
    | 1 ->
        if s.level.(Lit.var l) = 0 then begin
          satisfied := true;
          stop := true
        end
        else begin
          (* implied true by the assumed prefix: clause = prefix + l *)
          kept := l :: !kept;
          incr nkept;
          stop := true
        end
    | -1 -> () (* implied false: literal is redundant, drop it *)
    | _ ->
        kept := l :: !kept;
        incr nkept;
        unchecked_enqueue s (Lit.negate l) Arena.cref_undef;
        if propagate s <> Arena.cref_undef then stop := true
        (* clause = prefix *));
    incr i
  done;
  cancel_until s 0;
  if !satisfied then V_satisfied
  else if !nkept = len then V_unchanged
  else V_shortened (List.rev !kept)

let vivify s =
  let a = s.arena in
  let start_props = s.propagations in
  let n = Vec.Int.size s.learnts in
  let idx = ref 0 in
  while !idx < n && s.ok && s.propagations - start_props < vivify_budget do
    let c = Vec.Int.get s.learnts !idx in
    if
      (not (Arena.deleted a c))
      && Arena.size a c >= 3
      && Arena.size a c <= 30
      && Arena.lbd a c > 2
      && not (locked s c)
    then begin
      detach s c;
      match vivify_clause s c with
      | V_unchanged -> attach s c
      | V_satisfied -> Arena.set_deleted a c
      | V_shortened lits -> (
          s.vivified_clauses <- s.vivified_clauses + 1;
          log_learn s (Array.of_list lits);
          (* the shortened clause subsumes the original: delete the
             original from the trace too, before any unit from the
             shortened clause is enqueued at level 0 *)
          log_delete s (Arena.lits a c);
          match lits with
          | [] ->
              Arena.set_deleted a c;
              s.ok <- false;
              log_learn s [||]
          | [ l ] -> (
              Arena.set_deleted a c;
              match lit_value s l with
              | 1 -> ()
              | -1 ->
                  s.ok <- false;
                  log_learn s [||]
              | _ ->
                  unchecked_enqueue s l Arena.cref_undef;
                  if propagate s <> Arena.cref_undef then begin
                    s.ok <- false;
                    log_learn s [||]
                  end)
          | _ ->
              (* shrink in place: the kept literals are a subsequence of
                 the original, so they overwrite the prefix and the tail
                 becomes arena garbage *)
              let nl = List.length lits in
              List.iteri (fun i l -> Arena.set_lit a c i l) lits;
              Arena.shrink_clause a c nl;
              Arena.set_lbd a c (min (Arena.lbd a c) nl);
              attach s c)
    end;
    incr idx
  done

(* One restart-boundary inprocessing pass, at decision level 0. *)
let inprocess s =
  if s.ok then begin
    backward_subsume s;
    if s.ok then vivify s;
    let j = ref 0 in
    for i = 0 to Vec.Int.size s.learnts - 1 do
      let c = Vec.Int.get s.learnts i in
      if not (Arena.deleted s.arena c) then begin
        Vec.Int.set s.learnts !j c;
        incr j
      end
    done;
    Vec.Int.shrink s.learnts !j;
    recount_core s;
    maybe_gc s
  end

(* -- branching ----------------------------------------------------------- *)

let pick_branch_var s =
  let v = ref (-1) in
  while !v = -1 && not (Heap.is_empty s.order) do
    let cand = Heap.pop s.order s.activity in
    if var_value s cand = 0 then v := cand
  done;
  !v

(* -- phase seeding ------------------------------------------------------- *)

let set_phase s v b =
  if v >= 0 && v < s.nvars then
    Bytes.unsafe_set s.polarity v (if b then '\001' else '\000')

(* -- invariant sanitizer -------------------------------------------------- *)

(* Audit the solver's core data-structure invariants: trail/level
   consistency, two-watched-literal bookkeeping (long and binary lists),
   VSIDS heap well-formedness, and the clause arena (header structure,
   cref validity of every root, reason slot-0 discipline).  Pure
   inspection — never mutates, safe to call at any decision level.
   Returns (area, message) pairs where area is one of "trail", "watch",
   "heap", "arena". *)
let check_invariants s =
  let issues = ref [] in
  let issue area fmt =
    Printf.ksprintf (fun m -> issues := (area, m) :: !issues) fmt
  in
  (* trail and decision levels *)
  let tn = Vec.Int.size s.trail in
  if s.qhead < 0 || s.qhead > tn then
    issue "trail" "propagation head %d outside trail of size %d" s.qhead tn;
  let nlim = Vec.Int.size s.trail_lim in
  let prev = ref 0 in
  for k = 0 to nlim - 1 do
    let b = Vec.Int.get s.trail_lim k in
    if b < !prev || b > tn then
      issue "trail" "decision boundary %d of level %d is not monotone" b
        (k + 1);
    prev := max !prev b
  done;
  let on_trail = Bytes.make (max s.nvars 1) '\000' in
  let lim_idx = ref 0 in
  for i = 0 to tn - 1 do
    while !lim_idx < nlim && Vec.Int.get s.trail_lim !lim_idx <= i do
      incr lim_idx
    done;
    let l = Vec.Int.get s.trail i in
    let v = Lit.var l in
    if v < 0 || v >= s.nvars then
      issue "trail" "trail slot %d holds a literal on unallocated variable"
        i
    else begin
      if Bytes.get on_trail v = '\001' then
        issue "trail" "variable %d appears twice on the trail" v;
      Bytes.set on_trail v '\001';
      if lit_value s l <> 1 then
        issue "trail" "trail literal %d is not assigned true" (Lit.to_int l);
      if s.level.(v) <> !lim_idx then
        issue "trail"
          "variable %d recorded at level %d but sits in trail segment %d" v
          s.level.(v) !lim_idx
    end
  done;
  for v = 0 to s.nvars - 1 do
    if var_value s v <> 0 && Bytes.get on_trail v <> '\001' then
      issue "trail" "variable %d is assigned but absent from the trail" v
  done;
  (* arena structure, then cref validity of every root *)
  let a = s.arena in
  List.iter (fun m -> issue "arena" "%s" m) (Arena.validate ~nvars:s.nvars a);
  let offsets = Hashtbl.create 256 in
  List.iter (fun c -> Hashtbl.replace offsets c ()) (Arena.clause_offsets a);
  let valid_cref c = Hashtbl.mem offsets c in
  let check_db name db =
    Vec.Int.iter
      (fun c ->
        if not (valid_cref c) then
          issue "arena" "%s list holds invalid cref %d" name c)
      db
  in
  check_db "clause" s.clauses;
  check_db "learnt" s.learnts;
  for v = 0 to s.nvars - 1 do
    let r = s.reason.(v) in
    if r <> Arena.cref_undef then
      if not (valid_cref r) then
        issue "arena" "reason of variable %d is invalid cref %d" v r
      else if Arena.deleted a r then
        issue "arena" "reason of variable %d is a deleted clause" v
      else if Lit.var (Arena.lit a r 0) <> v then
        issue "arena"
          "reason clause of variable %d does not hold it in slot 0" v
  done;
  (* two-watched-literal bookkeeping, long and binary lists separately *)
  let watcher_total = ref 0 in
  Array.iteri
    (fun l ws ->
      Vec.Pair.iter
        (fun c _blocker ->
          if not (valid_cref c) then
            issue "arena" "watch list of literal %d holds invalid cref %d" l c
          else if not (Arena.deleted a c) then begin
            incr watcher_total;
            if Arena.size a c < 3 then
              issue "watch" "binary or unit clause on a long watch list"
            else begin
              let fl = Lit.negate l in
              if Arena.lit a c 0 <> fl && Arena.lit a c 1 <> fl then
                issue "watch"
                  "watch list of literal %d references a clause that does \
                   not watch it"
                  (Lit.to_int l)
            end
          end)
        ws)
    s.watches;
  let bin_total = ref 0 in
  Array.iteri
    (fun l bws ->
      Vec.Pair.iter
        (fun other c ->
          if not (valid_cref c) then
            issue "arena"
              "binary watch list of literal %d holds invalid cref %d" l c
          else if not (Arena.deleted a c) then begin
            incr bin_total;
            if Arena.size a c <> 2 then
              issue "watch" "non-binary clause on a binary watch list"
            else begin
              let fl = Lit.negate l in
              let l0 = Arena.lit a c 0 and l1 = Arena.lit a c 1 in
              let consistent =
                (l0 = fl && l1 = other) || (l1 = fl && l0 = other)
              in
              if not consistent then
                issue "watch"
                  "binary watcher of literal %d disagrees with its clause"
                  (Lit.to_int l)
            end
          end)
        bws)
    s.bin_watches;
  let live_long = ref 0 and live_bin = ref 0 in
  let count_db db =
    Vec.Int.iter
      (fun c ->
        if valid_cref c && not (Arena.deleted a c) then
          if Arena.size a c = 2 then incr live_bin else incr live_long)
      db
  in
  count_db s.clauses;
  count_db s.learnts;
  if !watcher_total <> 2 * !live_long then
    issue "watch" "%d live long watchers for %d live long clauses (expected %d)"
      !watcher_total !live_long (2 * !live_long);
  if !bin_total <> 2 * !live_bin then
    issue "watch"
      "%d live binary watchers for %d live binary clauses (expected %d)"
      !bin_total !live_bin (2 * !live_bin);
  (* VSIDS heap *)
  List.iter
    (fun m -> issues := ("heap", m) :: !issues)
    (Heap.check s.order s.activity);
  if decision_level s = 0 then
    for v = 0 to s.nvars - 1 do
      if var_value s v = 0 && not (Heap.in_heap s.order v) then
        issue "heap" "unassigned variable %d missing from the branching heap"
          v
    done;
  List.rev !issues

let sanitize_check s =
  if sanitizing s then
    match check_invariants s with
    | [] -> ()
    | issues ->
        raise
          (Invariant_violation
             (String.concat "; "
                (List.map (fun (a, m) -> a ^ ": " ^ m) issues)))

(* -- search -------------------------------------------------------------- *)

let luby y x =
  (* Luby restart sequence: 1 1 2 1 1 2 4 ... scaled by y^k. *)
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  y ** float_of_int !seq

exception Result of result
exception Restart

(* Budget check, on the hot path (every decision).  The conflict limit
   and the atomic stop flag are cheap and checked every time; the
   wall-clock deadline costs a syscall, so it is polled only after the
   conflict count has advanced by 64 since the last poll (the first
   check of a solve call always polls — [solve] rewinds
   [last_clock_poll]).  A positive answer is latched until the next
   [solve] call: the caller's re-check after an [Unknown] must agree
   with the poll that produced it. *)
let out_of_budget s ~conflict_limit ~deadline =
  s.budget_hit
  ||
  let hit =
    (match s.stop with Some f -> Atomic.get f | None -> false)
    || (conflict_limit >= 0 && s.conflicts >= conflict_limit)
    || deadline > 0.0
       && s.conflicts - s.last_clock_poll >= 64
       && begin
            s.last_clock_poll <- s.conflicts;
            s.clock_polls <- s.clock_polls + 1;
            Unix.gettimeofday () > deadline
          end
  in
  if hit then s.budget_hit <- true;
  hit

let search s ~nof_conflicts ~conflict_limit ~deadline =
  let conflict_c = ref 0 in
  try
    while true do
      let confl = propagate s in
      if confl <> Arena.cref_undef then begin
        s.conflicts <- s.conflicts + 1;
        incr conflict_c;
        if decision_level s = 0 then begin
          s.ok <- false;
          log_learn s [||];
          raise (Result Unsat)
        end;
        let learnt, bt_level, lbd = analyze s confl in
        if s.logging then log_learn s (Vec.Int.to_array learnt);
        cancel_until s bt_level;
        s.learnt_literals <- s.learnt_literals + Vec.Int.size learnt;
        s.glue_hist.(glue_bucket lbd) <- s.glue_hist.(glue_bucket lbd) + 1;
        s.lbd_sum <- s.lbd_sum + lbd;
        (if Vec.Int.size learnt = 1 then
           unchecked_enqueue s (Vec.Int.get learnt 0) Arena.cref_undef
         else begin
           let c =
             Arena.alloc_vec s.arena ~learnt:true ~lbd learnt
               (Vec.Int.size learnt)
           in
           Vec.Int.push s.learnts c;
           if is_core s c then s.num_core <- s.num_core + 1;
           attach s c;
           cla_bump s c;
           unchecked_enqueue s (Vec.Int.get learnt 0) c
         end);
        var_decay_all s;
        cla_decay_all s
      end
      else begin
        if out_of_budget s ~conflict_limit ~deadline then
          raise (Result Unknown);
        (* progress hook and telemetry sampler: same 64-conflict cadence
           as the clock poll, so enabling either adds no extra clock
           reads.  [Timeseries.enabled] is one atomic load. *)
        (if
           s.conflicts - s.last_progress >= 64
           && (s.on_progress <> None || Timeseries.enabled ())
         then begin
           s.last_progress <- s.conflicts;
           let mean_lbd =
             if s.conflicts = 0 then 0.0
             else float_of_int s.lbd_sum /. float_of_int s.conflicts
           in
           if Timeseries.enabled () then
             Timeseries.sample ~conflicts:s.conflicts ~decisions:s.decisions
               ~propagations:s.propagations ~restarts:s.restarts
               ~trail:(Vec.Int.size s.trail)
               ~learnts:(Vec.Int.size s.learnts) ~learnt_core:s.num_core
               ~mean_lbd ~arena_words:(Arena.top s.arena);
           match s.on_progress with
           | Some cb ->
               cb
                 {
                   pr_conflicts = s.conflicts;
                   pr_decisions = s.decisions;
                   pr_propagations = s.propagations;
                   pr_restarts = s.restarts;
                   pr_trail = Vec.Int.size s.trail;
                   pr_learnts = Vec.Int.size s.learnts;
                   pr_learnt_core = s.num_core;
                   pr_mean_lbd = mean_lbd;
                   pr_arena_words = Arena.top s.arena;
                 }
           | None -> ()
         end);
        if nof_conflicts >= 0 && !conflict_c >= nof_conflicts then
          raise Restart;
        if decision_level s = 0 then remove_satisfied s s.learnts;
        if
          float_of_int (Vec.Int.size s.learnts - s.num_core)
          -. float_of_int (Vec.Int.size s.trail)
          >= s.max_learnts
        then Trace.with_span ~name:"solver.reduce_db" (fun () -> reduce_db s);
        (* extend with assumptions first, then decide *)
        let next = ref (-2) in
        while !next = -2 && decision_level s < Array.length s.assumptions do
          let p = s.assumptions.(decision_level s) in
          match lit_value s p with
          | 1 -> new_decision_level s (* already satisfied: dummy level *)
          | -1 ->
              analyze_final s (Lit.negate p);
              raise (Result Unsat)
          | _ -> next := p
        done;
        if !next = -2 then begin
          s.decisions <- s.decisions + 1;
          let v = pick_branch_var s in
          if v = -1 then begin
            (* complete model *)
            s.model <- Array.init s.nvars (fun v -> var_value s v = 1);
            s.has_model <- true;
            raise (Result Sat)
          end;
          let sign = Bytes.unsafe_get s.polarity v = '\001' in
          next := Lit.make v sign
        end;
        new_decision_level s;
        unchecked_enqueue s !next Arena.cref_undef
      end
    done;
    Unknown
  with
  | Result r -> r
  | Restart ->
      cancel_until s 0;
      s.restarts <- s.restarts + 1;
      Trace.instant ~args:[ ("conflicts", Trace.Int s.conflicts) ]
        "solver.restart";
      Unknown

let solve_raw ?(assumptions = []) ?(conflict_limit = -1) ?(deadline = 0.0) s =
  (* Deterministic fault injection (tests / --inject): a forced fault is
     indistinguishable from a genuine budget exhaustion to the caller. *)
  match Fault.on_solve () with
  | Fault.Forced_unknown -> Unknown
  | (Fault.Pass | Fault.Truncated _) as action ->
  let conflict_limit =
    match action with
    | Fault.Truncated extra ->
        let cap = s.conflicts + max 0 extra in
        if conflict_limit < 0 then cap else min conflict_limit cap
    | _ -> conflict_limit
  in
  if not s.ok then Unsat
  else begin
    (* account this call's minor-heap allocation; with the arena layout
       the propagate/analyze cycle should keep this near zero *)
    let mw0 = Gc.minor_words () in
    Fun.protect
      ~finally:(fun () ->
        s.minor_words <-
          s.minor_words + int_of_float (Gc.minor_words () -. mw0))
      (fun () ->
        s.has_model <- false;
        s.conflict_core <- [];
        s.budget_hit <- false;
        (* force a clock poll on the first budget check of this call, so an
           already-expired deadline is noticed before any conflict *)
        s.last_clock_poll <- s.conflicts - 64;
        (* same rewind for the progress hook: fire once early in this call *)
        s.last_progress <- s.conflicts - 64;
        s.assumptions <- Array.of_list assumptions;
        Array.iter
          (fun l ->
            if Lit.var l >= s.nvars then
              invalid_arg "Solver.solve: assumption on unallocated variable")
          s.assumptions;
        cancel_until s 0;
        sanitize_check s;
        (if propagate s <> Arena.cref_undef then begin
           s.ok <- false;
           log_learn s [||]
         end);
        if not s.ok then Unsat
        else begin
          s.max_learnts <-
            max 1000.0 (float_of_int (Vec.Int.size s.clauses) /. 3.0);
          let result = ref Unknown in
          let restarts = ref 0 in
          let finished = ref false in
          while not !finished do
            let budget = int_of_float (100.0 *. luby 2.0 !restarts) in
            (match
               search s ~nof_conflicts:budget ~conflict_limit ~deadline
             with
            | Sat ->
                result := Sat;
                finished := true
            | Unsat ->
                result := Unsat;
                finished := true
            | Unknown ->
                if out_of_budget s ~conflict_limit ~deadline then begin
                  result := Unknown;
                  finished := true
                end);
            s.max_learnts <- s.max_learnts *. 1.05;
            incr restarts;
            if (not !finished) && !restarts mod inprocess_interval = 0
            then begin
              Trace.with_span ~name:"solver.inprocess" (fun () ->
                  inprocess s);
              if not s.ok then begin
                result := Unsat;
                finished := true
              end
            end
          done;
          cancel_until s 0;
          sanitize_check s;
          !result
        end)
  end

let solve ?assumptions ?conflict_limit ?deadline s =
  if not (Trace.enabled ()) then
    solve_raw ?assumptions ?conflict_limit ?deadline s
  else
    Trace.with_span ~name:"solver.solve"
      ~args:
        [
          ("nvars", Trace.Int s.nvars);
          ( "conflict_limit",
            Trace.Int (Option.value conflict_limit ~default:(-1)) );
        ]
      (fun () ->
        let r = solve_raw ?assumptions ?conflict_limit ?deadline s in
        ignore (flush_metrics s);
        r)

let value s l =
  if not s.has_model then invalid_arg "Solver.value: no model";
  let v = Lit.var l in
  if v >= Array.length s.model then invalid_arg "Solver.value: bad literal";
  if Lit.sign l then s.model.(v) else not s.model.(v)

let model s =
  if not s.has_model then invalid_arg "Solver.model: no model";
  Array.copy s.model

let unsat_core s = s.conflict_core

(* -- seeded corruption for the lint test suite ---------------------------- *)

module Testing = struct
  (* Each corruption breaks exactly one invariant audited by
     [check_invariants]; returns false when the solver is too small to
     corrupt.  For the sanitizer's mutation tests only. *)

  let corrupt_watch s =
    let found = ref false in
    Array.iter
      (fun ws ->
        if (not !found) && Vec.Pair.size ws > 0 then begin
          Vec.Pair.shrink ws (Vec.Pair.size ws - 1);
          found := true
        end)
      s.watches;
    if not !found then
      Array.iter
        (fun bws ->
          if (not !found) && Vec.Pair.size bws > 0 then begin
            Vec.Pair.shrink bws (Vec.Pair.size bws - 1);
            found := true
          end)
        s.bin_watches;
    !found

  let corrupt_trail s =
    if Vec.Int.size s.trail > 0 then begin
      Vec.Int.push s.trail (Vec.Int.get s.trail 0);
      true
    end
    else if s.nvars > 0 then begin
      Vec.Int.push s.trail (Lit.pos 0);
      true
    end
    else false

  let corrupt_heap s =
    if Heap.size s.order >= 2 then begin
      match List.rev (Heap.members s.order) with
      | v :: _ ->
          (* inflate a leaf's activity without percolating it up *)
          s.activity.(v) <- s.activity.(v) +. 1.0e9;
          true
      | [] -> false
    end
    else false

  let corrupt_arena s = Arena.corrupt_flags s.arena

  let inprocess s =
    cancel_until s 0;
    inprocess s

  let compact s = garbage_collect s
end
