module Lit = Qxm_sat.Lit
module Solver = Qxm_sat.Solver
module Cnf = Qxm_encode.Cnf
module Amo = Qxm_encode.Amo
module Minimize = Qxm_opt.Minimize
module Circuit = Qxm_circuit.Circuit
module Gate = Qxm_circuit.Gate
module Decompose = Qxm_circuit.Decompose
module Unitary = Qxm_circuit.Unitary
module Coupling = Qxm_arch.Coupling
module Subsets = Qxm_arch.Subsets
module Swap_count = Qxm_arch.Swap_count
module Permutation = Qxm_arch.Permutation
module Pool = Qxm_par.Pool
module Incumbent = Qxm_par.Incumbent
module Cancel = Qxm_par.Cancel
module Trace = Qxm_obs.Trace
module Metrics = Qxm_obs.Metrics
module Timeseries = Qxm_obs.Timeseries

type options = {
  strategy : Strategy.t;
  use_subsets : bool;
  timeout : float option;
  conflict_limit : int;
  amo : Amo.encoding;
  verify : bool;
  upper_bound : int option;
  costs : Encoding.cost_model;
  jobs : int;
  incumbent_pruning : bool;
  warm_start : bool;
  certificate : bool;
  symmetry : bool;
}

let candidates_pruned = Metrics.counter "mapper.candidates_pruned"
let ladder_reuse_hits = Metrics.counter "mapper.ladder_reuse_hits"

(* [QXM_JOBS] lets a whole process (most usefully: the test suite under
   CI) opt into parallel candidate fan-out without touching call sites. *)
let jobs_from_env () =
  match Sys.getenv_opt "QXM_JOBS" with
  | None -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> j
      | _ -> 1)

let default =
  {
    strategy = Strategy.Minimal;
    use_subsets = true;
    timeout = None;
    conflict_limit = -1;
    amo = Amo.default;
    verify = true;
    upper_bound = None;
    costs = Encoding.paper_costs;
    jobs = jobs_from_env ();
    incumbent_pruning = true;
    warm_start = true;
    certificate = false;
    symmetry = true;
  }

(* Symmetry breaking is applied under the [Minimal] strategy (the one
   whose Table-1 proofs it is meant to speed up); relaxed strategies run
   on the unrestricted model space. *)
let effective_symmetry (options : options) =
  options.symmetry && options.strategy = Strategy.Minimal

(* Raw optimality evidence for certificate emission (only populated when
   [options.certificate] is set): the winning instance, its satisfying
   model, and the solver's own DRUP trace for the final UNSAT rung.
   Everything an offline auditor needs that the polished [report] fields
   no longer expose. *)
type witness = {
  w_sub_arch : Coupling.t;  (* winning candidate sub-architecture *)
  w_back : int array;  (* instance position -> device qubit, ascending *)
  w_model : bool array;  (* satisfying model over the instance encoding *)
  w_cost : int;  (* the model's objective value — the claimed F* *)
  w_mapped_inst : Circuit.t;  (* mapped circuit in instance space *)
  w_init_full : int array;  (* full wire -> position maps, instance space *)
  w_final_full : int array;
  w_proof : Qxm_sat.Proof.t option;  (* DRUP trace of the F*-1 UNSAT *)
  w_bounds : int list;  (* bounds enforced on the PB circuit, in order *)
  w_pb_cap : int option;  (* the cap that PB circuit was built with *)
  w_symmetry : bool;  (* encoding carried lex-leader symmetry clauses *)
}

type report = {
  mapped : Circuit.t;
  elementary : Circuit.t;
  initial : int array;
  final : int array;
  f_cost : int;
  objective_cost : int;
  total_gates : int;
  optimal : bool;
  runtime : float;
  reported_gprime : int;
  subsets_tried : int;
  solves : int;
  verified : bool option;
  workers : int;
  pruned_by_incumbent : int;
  sat_stats : Solver.stats;
  strategy_name : string;
  trajectory : (float * int) list;
  phase_seconds : (string * float) list;
  witness : witness option;
}

type progress = {
  p_phase : string;
  p_best : int option;
  p_conflicts : int;
  p_restarts : int;
  p_elapsed : float;
}

type failure =
  | Too_many_logical of { logical : int; physical : int }
  | Unmappable of Solver.stats
  | Timeout of Solver.stats

let pp_failure fmt = function
  | Too_many_logical { logical; physical } ->
      Format.fprintf fmt "circuit needs %d qubits, device has %d" logical
        physical
  | Unmappable _ -> Format.fprintf fmt "no valid mapping under this strategy"
  | Timeout _ -> Format.fprintf fmt "time budget exhausted before any solution"

(* -- reconstruction ------------------------------------------------------ *)

(* Replay the original gate list in instance space: single-qubit gates
   follow their logical qubit, SWAP chains realize the permutation at each
   spot, CNOTs land on their segment's placement.  Also tracks the full
   content permutation (wires >= n are the idle extras) for verification. *)
let reconstruct built model circuit m_inst =
  let maps = Encoding.mapping_of_model built model in
  let n = Circuit.num_qubits circuit in
  let place = Array.copy maps.(0) in
  (* full wire -> position map: extras fill the free positions, ascending *)
  let full = Array.make m_inst (-1) in
  Array.iteri (fun j p -> full.(j) <- p) place;
  let taken = Array.make m_inst false in
  Array.iter (fun p -> if p >= 0 then taken.(p) <- true) place;
  let free = ref (List.filter (fun p -> not taken.(p)) (List.init m_inst Fun.id)) in
  for w = n to m_inst - 1 do
    match !free with
    | p :: rest ->
        full.(w) <- p;
        free := rest
    | [] -> assert false
  done;
  let init_full = Array.copy full in
  let rev_gates = ref [] in
  let emit g = rev_gates := g :: !rev_gates in
  let apply_swap a b =
    Array.iteri
      (fun j p -> if p = a then place.(j) <- b else if p = b then place.(j) <- a)
      place;
    Array.iteri
      (fun w p -> if p = a then full.(w) <- b else if p = b then full.(w) <- a)
      full
  in
  let k = ref 0 in
  List.iter
    (fun g ->
      match g with
      | Gate.Single (kind, q) -> emit (Gate.Single (kind, place.(q)))
      | Gate.Barrier qs -> emit (Gate.Barrier (List.map (fun q -> place.(q)) qs))
      | Gate.Swap _ ->
          invalid_arg "Mapper: input circuit contains SWAP gates"
      | Gate.Cnot (c, t) ->
          let s = Encoding.segment_of_gate built !k in
          if !k > 0 && s <> Encoding.segment_of_gate built (!k - 1) then begin
            let pi = Encoding.permutation_at_spot built model s in
            List.iter
              (fun (a, b) ->
                emit (Gate.Swap (a, b));
                apply_swap a b)
              (Swap_count.sequence (Encoding.swap_table built) pi);
            Array.iteri
              (fun j p ->
                if p <> maps.(s).(j) then
                  invalid_arg "Mapper: swap replay diverged from model")
              place
          end;
          emit (Gate.Cnot (place.(c), place.(t)));
          incr k)
    (Circuit.gates circuit);
  let mapped = Circuit.create m_inst (List.rev !rev_gates) in
  (mapped, maps.(0), Array.copy place, init_full, Array.copy full)

(* Unitary proof in instance space:
   U_elementary = P_final · (U_orig ⊗ I) · P_init†. *)
let verify_mapping ~arch_inst ~original ~mapped ~init_full ~final_full =
  Qxm_circuit.Equiv.check
    ~allowed:(Coupling.allows arch_inst)
    ~original ~mapped ~init_full ~final_full ()

(* -- solving one instance ------------------------------------------------ *)

type solved = {
  s_model : bool array;
  s_built : Encoding.built;
  s_cost : int;
  s_optimal : bool;
  s_solves : int;
  s_stats : Solver.stats;
  s_proof : Qxm_sat.Proof.t option;
  s_bounds : int list;
  s_pb_cap : int option;
}

(* The warm-start seed: the DP's optimal routing of the candidate, as
   assumptions pinning the encoding to it, with its cost.  Relaxed
   strategies and n < m instances are routed over the same spots and
   dummies the encoding uses, so the routing is always encodable; under
   symmetry the DP keeps to lex-leader initial layouts, so the clauses
   cannot refute it. *)
let dp_seed ~(options : options) ~built inst =
  if not (Dp_exact.tractable inst) then None
  else
    Dp_exact.solve ~costs:options.costs ~symmetry:(effective_symmetry options)
      inst
    |> Option.map (fun (r : Dp_exact.routing) ->
           ( r.cost,
             Encoding.routing_assumptions built ~layouts:r.layouts
               ~flips:r.flips ))

(* Observation hooks threaded from [run] into each candidate solve:
   [obs_phase] times (and spans) a pipeline stage under its name,
   [obs_incumbent] receives every candidate-local incumbent cost, and
   [obs_solver] attaches the in-search progress callback to each fresh
   solver.  A record with a polymorphic field so one wrapper serves
   stages of any return type. *)
type obs = {
  obs_phase : 'a. string -> (unit -> 'a) -> 'a;
  obs_incumbent : int -> unit;
  obs_solver : Solver.t -> unit;
}

(* -- ladder sessions ----------------------------------------------------- *)

(* Per-candidate incremental state for the portfolio's conflict-limit
   ladder: solver, encoding, warm-start seed and minimization session
   survive between [run] calls, so a later rung resumes the previous
   descent — learnt clauses, saved phases and VSIDS activity intact —
   instead of re-encoding from scratch.  [sl_reported] is a stats
   watermark: a reused solver's counters are cumulative over its
   lifetime, so each rung reports only its delta and per-stage
   aggregation never double-counts. *)
type slot = {
  sl_solver : Solver.t;
  sl_cnf : Cnf.t;
  sl_built : Encoding.built;
  sl_seed : (int * Lit.t list) option;
  sl_min : Minimize.session;
  mutable sl_reported : Solver.stats;
}

type session = {
  se_lock : Mutex.t;
  se_slots : (int, slot) Hashtbl.t; (* candidate index -> cached state *)
  mutable se_key : options option;
}

let new_session () =
  { se_lock = Mutex.create (); se_slots = Hashtbl.create 8; se_key = None }

(* Two option records are ladder-compatible when they differ only in
   budgets and bounds — those the session machinery absorbs (bounds pass
   through the minimizer's monotone watermark, budgets are per-call).
   Anything else (another strategy, AMO scheme, cost model, seed, …)
   would make the cached encoding or solver state wrong, so the session
   is silently bypassed and the call runs fresh. *)
let session_key (o : options) =
  { o with timeout = None; conflict_limit = -1; upper_bound = None; jobs = 1 }

(* [None]: session incompatible, run fresh without caching.
   [Some None]: usable but no slot yet — cache the fresh state.
   [Some (Some sl)]: resume [sl]. *)
let session_slot se ~options ~index =
  let key = session_key options in
  Mutex.lock se.se_lock;
  let usable =
    match se.se_key with
    | None ->
        se.se_key <- Some key;
        true
    | Some k -> k = key
  in
  let slot = if usable then Some (Hashtbl.find_opt se.se_slots index) else None in
  Mutex.unlock se.se_lock;
  slot

let solve_instance ~(options : options) ~obs ~cancel ~deadline ~bound ?session
    ~index inst =
  let cached =
    match session with
    | None -> None
    | Some se -> session_slot se ~options ~index
  in
  let fresh () =
    let solver = Solver.create ~capacity:(Encoding.var_capacity_hint inst) () in
    if options.certificate then Solver.enable_proof solver;
    obs.obs_solver solver;
    (match cancel with
    | Some c -> Solver.set_stop solver (Some (Cancel.flag c))
    | None -> ());
    let cnf = Cnf.create solver in
    let built =
      obs.obs_phase "encode" (fun () ->
          Encoding.build ~amo:options.amo ~costs:options.costs
            ~symmetry:(effective_symmetry options) cnf inst)
    in
    let seed =
      if options.warm_start then
        obs.obs_phase "warm_start" (fun () -> dp_seed ~options ~built inst)
      else None
    in
    {
      sl_solver = solver;
      sl_cnf = cnf;
      sl_built = built;
      sl_seed = seed;
      sl_min = Minimize.new_session ();
      sl_reported = Solver.zero_stats;
    }
  in
  let sl =
    match cached with
    | Some (Some sl) ->
        (* resumed rung — the clause-reuse fast path: re-attach the
           per-call hooks, keep solver and encoding *)
        Metrics.incr ladder_reuse_hits;
        obs.obs_solver sl.sl_solver;
        Solver.set_stop sl.sl_solver (Option.map Cancel.flag cancel);
        sl
    | Some None ->
        let sl = fresh () in
        (match session with
        | Some se ->
            Mutex.lock se.se_lock;
            Hashtbl.replace se.se_slots index sl;
            Mutex.unlock se.se_lock
        | None -> ());
        sl
    | None -> fresh ()
  in
  (* A seed costlier than the enforced bound would only be refuted. *)
  let warm_start =
    match (sl.sl_seed, bound) with
    | Some (cost, _), Some b when cost > b -> None
    | seed, _ -> Option.map snd seed
  in
  let outcome =
    obs.obs_phase "solve" (fun () ->
        Minimize.minimize ~session:sl.sl_min
          ?deadline:(Option.map Fun.id deadline)
          ~conflict_limit:options.conflict_limit ?upper_bound:bound
          ?warm_start
          ~on_incumbent:obs.obs_incumbent ~cnf:sl.sl_cnf
          ~objective:(Encoding.objective sl.sl_built) ())
  in
  let stats =
    let now = Solver.stats sl.sl_solver in
    let delta = Solver.sub_stats now sl.sl_reported in
    sl.sl_reported <- now;
    delta
  in
  match outcome with
  | { unsatisfiable = true; _ } -> `Unsat stats
  | { model = Some model; cost = Some cost; optimal; solves; proof; bounds; _ }
    ->
      `Model
        {
          s_model = model;
          s_built = sl.sl_built;
          s_cost = cost;
          s_optimal = optimal;
          s_solves = solves;
          s_stats = stats;
          s_proof = proof;
          s_bounds = bounds;
          s_pb_cap = outcome.pb_cap;
        }
  | _ -> `Budget stats

(* -- main entry ---------------------------------------------------------- *)

(* What one candidate sub-architecture contributed to the race.  Models
   that lost the incumbent race are dropped immediately (their solver and
   model arrays are garbage the moment a better candidate is published);
   only their accounting survives. *)
type candidate_outcome =
  | C_skipped  (** deadline or cancellation hit before launching *)
  | C_unsat of { via_incumbent : bool; stats : Solver.stats }
  | C_budget of Solver.stats
  | C_kept of solved
  | C_dropped of {
      cost : int;
      optimal : bool;
      solves : int;
      stats : Solver.stats;
    }

let run ?(options = default) ?session ?pool ?cancel ?on_progress ~arch circuit
    =
  let start = Unix.gettimeofday () in
  (* Observation state shared by all candidate racers.  Everything here
     is either atomic or guarded by [obs_lock]; the callbacks run on
     whichever domain is solving. *)
  let obs_lock = Mutex.create () in
  let phases : (string, float) Hashtbl.t = Hashtbl.create 8 in
  let rev_traj = ref [] in
  let best_seen = ref max_int in
  let total_conflicts = Atomic.make 0 in
  let total_restarts = Atomic.make 0 in
  let fire_progress phase =
    match on_progress with
    | None -> ()
    | Some cb ->
        Mutex.lock obs_lock;
        let best = !best_seen in
        Mutex.unlock obs_lock;
        cb
          {
            p_phase = phase;
            p_best = (if best = max_int then None else Some best);
            p_conflicts = Atomic.get total_conflicts;
            p_restarts = Atomic.get total_restarts;
            p_elapsed = Unix.gettimeofday () -. start;
          }
  in
  let obs =
    {
      obs_phase =
        (fun name f ->
          fire_progress name;
          let t0 = Unix.gettimeofday () in
          Fun.protect
            ~finally:(fun () ->
              let dt = Unix.gettimeofday () -. t0 in
              Mutex.lock obs_lock;
              let prev = Option.value ~default:0.0 (Hashtbl.find_opt phases name) in
              Hashtbl.replace phases name (prev +. dt);
              Mutex.unlock obs_lock)
            (fun () -> Trace.with_span ~name:("mapper." ^ name) f));
      obs_incumbent =
        (fun cost ->
          let improved =
            Mutex.lock obs_lock;
            let better = cost < !best_seen in
            if better then begin
              best_seen := cost;
              rev_traj := (Unix.gettimeofday (), cost) :: !rev_traj
            end;
            Mutex.unlock obs_lock;
            better
          in
          if improved then begin
            Trace.instant
              ~args:[ ("cost", Trace.Int cost) ]
              "mapper.incumbent";
            fire_progress "solve"
          end);
      obs_solver =
        (fun solver ->
          if on_progress <> None then begin
            (* per-solver watermarks: each callback publishes its delta
               into the shared totals *)
            let last_c = ref 0 and last_r = ref 0 in
            Solver.set_on_progress solver
              (Some
                 (fun pr ->
                   ignore
                     (Atomic.fetch_and_add total_conflicts
                        (pr.Solver.pr_conflicts - !last_c));
                   ignore
                     (Atomic.fetch_and_add total_restarts
                        (pr.Solver.pr_restarts - !last_r));
                   last_c := pr.Solver.pr_conflicts;
                   last_r := pr.Solver.pr_restarts;
                   fire_progress "solve"))
          end)
    }
  in
  (* Reserve a slice of the budget for reconstruction and verification:
     solving stops early enough that an incumbent found near the deadline
     still becomes a full report instead of a late [Timeout]. *)
  let deadline =
    Option.map
      (fun t -> start +. t -. Float.min (0.1 *. t) 1.0)
      options.timeout
  in
  let m = Coupling.num_qubits arch in
  let n = Circuit.num_qubits circuit in
  if n > m then Error (Too_many_logical { logical = n; physical = m })
  else begin
    let cnots = Array.of_list (Circuit.cnots circuit) in
    let spots = Strategy.spots options.strategy (Array.to_list cnots) in
    let reported_gprime =
      Strategy.reported_size options.strategy (Array.to_list cnots)
    in
    (* Candidate sub-architectures: (coupling, back-map to device). *)
    let candidates =
      if options.use_subsets && n < m then
        List.map
          (fun subset -> Coupling.induce arch subset)
          (Subsets.connected arch n)
      else [ (arch, Array.init m Fun.id) ]
    in
    let ncand = List.length candidates in
    let incumbent = Incumbent.create () in
    let inst_of sub_arch =
      { Encoding.arch = sub_arch; num_logical = n; cnots; spots }
    in
    (* One racer per candidate.  Pruning: candidate [index] only matters
       if it beats (or, at a tie, out-indexes) the incumbent, so its
       search is capped by [Incumbent.cap] — a capped UNSAT then just
       means "not better", which preserves the min-over-candidates
       optimum.  Run inline (width 1), the caps replay the sequential
       scan's [prev.s_cost - 1] bounds exactly. *)
    let run_candidate index (sub_arch, _back) =
      Trace.with_span ~name:"mapper.candidate"
        ~args:
          [
            ("index", Trace.Int index);
            ("qubits", Trace.Int (Coupling.num_qubits sub_arch));
          ]
      @@ fun () ->
      (* telemetry: samples from this racer carry its candidate index *)
      Timeseries.with_label (Printf.sprintf "cand=%d" index)
      @@ fun () ->
      let give_up =
        (match deadline with
        | Some d -> Unix.gettimeofday () > d
        | None -> false)
        || (match cancel with Some c -> Cancel.cancelled c | None -> false)
      in
      if give_up then C_skipped
      else begin
        let inc_cap =
          if options.incumbent_pruning then Incumbent.cap incumbent ~index
          else None
        in
        let bound =
          match (options.upper_bound, inc_cap) with
          | Some u, Some c -> Some (min u c)
          | Some u, None -> Some u
          | None, c -> c
        in
        let via_incumbent = inc_cap <> None && bound = inc_cap in
        match inc_cap with
        | Some c when c < 0 ->
            (* a lower-indexed candidate reached F = 0, which nothing
               beats: skip the encode and the UNSAT solve outright *)
            C_unsat { via_incumbent; stats = Solver.zero_stats }
        | _ -> (
            match
              solve_instance ~options ~obs ~cancel ~deadline ~bound ?session
                ~index (inst_of sub_arch)
            with
            | `Unsat stats -> C_unsat { via_incumbent; stats }
            | `Budget stats -> C_budget stats
            | `Model s ->
                if Incumbent.offer incumbent ~cost:s.s_cost ~index then
                  C_kept s
                else
                  C_dropped
                    {
                      cost = s.s_cost;
                      optimal = s.s_optimal;
                      solves = s.s_solves;
                      stats = s.s_stats;
                    })
      end
    in
    (* Fault schedules count solve calls, which is only deterministic when
       the calls are ordered — drop to one worker while a schedule is
       armed, whatever [jobs] (or the supplied pool) says. *)
    let fault_armed = Qxm_sat.Fault.armed () <> None in
    (* Pool spin-up (domain creation, scheduling) costs more than it buys
       on tiny searches: a lone candidate, or an instance whose encoding
       is small enough that the sequential scan finishes in milliseconds.
       Those run inline whatever [jobs] says. *)
    let trivial_work =
      ncand <= 1 || Array.length cnots * n * n <= 256
    in
    (* A sequential race runs the same inline scan at every [jobs] value
       (and every pool), so its winning model is already canonical. *)
    let sequential = fault_armed || trivial_work in
    let width =
      if sequential then 1
      else
        match pool with Some p -> Pool.size p | None -> max 1 options.jobs
    in
    let workers = max 1 (min width ncand) in
    let results =
      if workers <= 1 then List.mapi (fun i c -> run_candidate i c) candidates
      else
        let fan p =
          Pool.await_all
            (List.mapi
               (fun i c -> Pool.submit p (fun () -> run_candidate i c))
               candidates)
        in
        match pool with
        | Some p -> fan p
        | None -> Pool.with_pool workers fan
    in
    let all_optimal = ref true in
    let any_budget = ref false in
    let solves = ref 0 in
    let pruned = ref 0 in
    let sat_stats = ref Solver.zero_stats in
    let add_stats st = sat_stats := Solver.add_stats !sat_stats st in
    List.iter
      (function
        | C_skipped -> any_budget := true
        | C_unsat { via_incumbent; stats } ->
            add_stats stats;
            if via_incumbent then incr pruned
        | C_budget stats ->
            add_stats stats;
            any_budget := true;
            all_optimal := false
        | C_kept s ->
            add_stats s.s_stats;
            solves := !solves + s.s_solves;
            if not s.s_optimal then all_optimal := false
        | C_dropped d ->
            add_stats d.stats;
            solves := !solves + d.solves;
            if not d.optimal then all_optimal := false)
      results;
    match Incumbent.get incumbent with
    | None ->
        if !any_budget then Error (Timeout !sat_stats)
        else Error (Unmappable !sat_stats)
    | Some (best_cost, best_index) ->
        let s, sub_arch, back =
          match (List.nth results best_index, List.nth candidates best_index)
          with
          | C_kept s, (sub_arch, back) -> (s, sub_arch, back)
          | _ -> assert false
        in
        (* Canonical model: when the race can fan out, the race model
           depends on which pruning bounds were in force when the winner
           solved, so re-derive it on a fresh solver with the winning cost
           as the only bound.  That makes the returned model a function of
           the winner alone — identical for every [jobs] value.  A
           sequential race replays the same bounds at every [jobs], so it
           keeps its race model.  Budget-bound runs fall back to the race
           model rather than lose it — and when the deadline has already
           expired (or the caller cancelled), the re-solve is skipped
           outright: a fresh encode + solve would burn past the budget
           only to be cut mid-descent, and its partial result must not
           overwrite the race's certified status. *)
        let expired =
          (match deadline with
          | Some d -> Unix.gettimeofday () > d
          | None -> false)
          || match cancel with Some c -> Cancel.cancelled c | None -> false
        in
        let s =
          if sequential || expired then s
          else
            match
              Trace.with_span ~name:"mapper.canonical_resolve" (fun () ->
                  solve_instance ~options ~obs ~cancel ~deadline
                    ~bound:(Some best_cost) ~index:best_index
                    (inst_of sub_arch))
            with
            | `Model s2 when s2.s_optimal ->
                add_stats s2.s_stats;
                solves := !solves + s2.s_solves;
                s2
            | `Model s2 ->
                (* deadline cut the re-solve: keep the race model (and the
                   race's own optimality verdict) instead of adopting a
                   weaker anytime model *)
                add_stats s2.s_stats;
                solves := !solves + s2.s_solves;
                s
            | `Unsat st | `Budget st ->
                add_stats st;
                s
        in
        let m_inst = Coupling.num_qubits sub_arch in
        let mapped_inst, init_l, final_l, init_full, final_full =
          obs.obs_phase "reconstruct" (fun () ->
              reconstruct s.s_built s.s_model circuit m_inst)
        in
        let verified =
          if options.verify then
            obs.obs_phase "verify" (fun () ->
                verify_mapping ~arch_inst:sub_arch ~original:circuit
                  ~mapped:mapped_inst ~init_full ~final_full)
          else None
        in
        (* Relabel into device space and decompose against the device. *)
        let mapped =
          Circuit.map_qubits (fun q -> back.(q)) m mapped_inst
        in
        let elementary =
          Decompose.elementary ~allowed:(Coupling.allows arch) mapped
        in
        let f_cost = Decompose.added_cost ~original:circuit ~mapped:elementary in
        (* Report the objective value the emitted circuit actually
           realizes.  An anytime model (deadline hit mid-descent) can set
           cost-ladder or switching bits the reconstruction never pays
           for, so the model's own cost [s.s_cost] may overshoot; the
           circuit-derived value is what a rerun seeded with it as
           [upper_bound] can reproduce. *)
        let objective_cost =
          Certify.objective_of_mapped ~costs:options.costs ~arch mapped
        in
        assert (objective_cost <= s.s_cost);
        (* with the paper's weights the objective value bounds the real
           gate overhead; custom weights use different units *)
        assert (options.costs <> Encoding.paper_costs || f_cost <= objective_cost);
        let witness =
          if options.certificate then
            Some
              {
                w_sub_arch = sub_arch;
                w_back = back;
                w_model = s.s_model;
                w_cost = s.s_cost;
                w_mapped_inst = mapped_inst;
                w_init_full = init_full;
                w_final_full = final_full;
                w_proof = s.s_proof;
                w_bounds = s.s_bounds;
                w_pb_cap = s.s_pb_cap;
                w_symmetry = Encoding.symmetry s.s_built;
              }
          else None
        in
        let report =
          {
            mapped;
            elementary;
            initial = Array.map (fun p -> back.(p)) init_l;
            final = Array.map (fun p -> back.(p)) final_l;
            f_cost;
            objective_cost;
            total_gates = Circuit.length elementary;
            optimal = !all_optimal && not !any_budget;
            runtime = Unix.gettimeofday () -. start;
            reported_gprime;
            subsets_tried = ncand;
            solves = !solves;
            verified;
            workers;
            pruned_by_incumbent = !pruned;
            sat_stats = !sat_stats;
            strategy_name = Strategy.name options.strategy;
            trajectory =
              List.rev_map (fun (t, c) -> (t -. start, c)) !rev_traj;
            phase_seconds =
              List.map
                (fun name ->
                  ( name,
                    Option.value ~default:0.0 (Hashtbl.find_opt phases name) ))
                [ "encode"; "warm_start"; "solve"; "reconstruct"; "verify" ];
            witness;
          }
        in
        if !pruned > 0 then Metrics.add candidates_pruned !pruned;
        Ok report
  end
