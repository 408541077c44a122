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
  dp_incumbent : bool;
  runtime : float;
  reported_gprime : int;
  subsets_tried : int;
  solves : int;
  verified : bool option;
  workers : int;
  pruned_by_incumbent : int;
  sat_stats : Solver.stats;
  strategy_name : string;
  witness : witness option;
}

type failure =
  | Too_many_logical of { logical : int; physical : int }
  | Disconnected of { logical : int; largest : int }
  | Unmappable of Solver.stats
  | Timeout of Solver.stats

let pp_failure fmt = function
  | Too_many_logical { logical; physical } ->
      Format.fprintf fmt "circuit needs %d qubits, device has %d" logical
        physical
  | Disconnected { logical; largest } ->
      Format.fprintf fmt
        "device has no connected set of %d qubits (largest connected part: \
         %d)"
        logical largest
  | Unmappable _ -> Format.fprintf fmt "no valid mapping under this strategy"
  | Timeout _ -> Format.fprintf fmt "time budget exhausted before any solution"

(* -- reconstruction ------------------------------------------------------ *)

(* The cheapest reachable permutation that moves every occupied position
   of [prev] to its place in [next] ([permutations_with_cost] is in BFS,
   ascending-cost, order).  With n = m the movement is the permutation
   itself; with n < m this chooses the cheapest completion over the idle
   positions. *)
let permutation_between table m prev next =
  let partial = Array.make m (-1) in
  Array.iteri (fun j i -> partial.(i) <- next.(j)) prev;
  let consistent (pi, _) =
    let rec from i =
      i = m
      || ((partial.(i) = -1 || Permutation.apply pi i = partial.(i))
         && from (i + 1))
    in
    from 0
  in
  match List.find_opt consistent (Swap_count.permutations_with_cost table) with
  | Some (pi, _) -> pi
  | None -> invalid_arg "Mapper: no consistent permutation (disconnected?)"

(* Replay the original gate list in instance space from per-segment
   layouts ([layouts.(s).(j)] = position of logical [j < n] during
   segment [s]), whether a SAT model or the DP produced them: single-
   qubit gates follow their logical qubit, SWAP chains realize the
   cheapest movement at each spot, CNOTs land on their segment's
   placement.  Also tracks the full content permutation (wires >= n are
   the idle extras) for verification. *)
let reconstruct built layouts circuit m_inst =
  let n = Circuit.num_qubits circuit in
  let place = Array.copy layouts.(0) in
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
            let table = Encoding.swap_table built in
            let pi =
              permutation_between table m_inst layouts.(s - 1) layouts.(s)
            in
            List.iter
              (fun (a, b) ->
                emit (Gate.Swap (a, b));
                apply_swap a b)
              (Swap_count.sequence table pi);
            Array.iteri
              (fun j p ->
                if p <> layouts.(s).(j) then
                  invalid_arg "Mapper: swap replay diverged from the layouts")
              place
          end;
          emit (Gate.Cnot (place.(c), place.(t)));
          incr k)
    (Circuit.gates circuit);
  let mapped = Circuit.create m_inst (List.rev !rev_gates) in
  (mapped, layouts.(0), Array.copy place, init_full, Array.copy full)

(* Unitary proof in instance space:
   U_elementary = P_final · (U_orig ⊗ I) · P_init†. *)
let verify_mapping ~arch_inst ~original ~mapped ~init_full ~final_full =
  Qxm_circuit.Equiv.check
    ~allowed:(Coupling.allows arch_inst)
    ~original ~mapped ~init_full ~final_full ()

(* -- solving one instance ------------------------------------------------ *)

(* One candidate's answer.  [s_model = None] marks the DP floor: the
   candidate's DP routing, which no SAT model confirmed. *)
type solved = {
  s_model : bool array option;
  s_layouts : int array array;  (* per segment, place.(j) for logical j < n *)
  s_built : Encoding.built;
  s_cost : int;
  s_optimal : bool;
  s_solves : int;
  s_stats : Solver.stats;
  s_proof : Qxm_sat.Proof.t option;
  s_bounds : int list;
  s_pb_cap : int option;
}

(* Whether [inst] gets the warm-start seed: the one predicate behind
   both [dp_seed] and [seeded], so the portfolio's rung choice cannot
   drift from the seeding it relies on. *)
let seeds (options : options) inst =
  options.warm_start && Dp_exact.tractable inst

(* The candidate with the most physical qubits is the whole device, and
   [Dp_exact.tractable] only falls as qubits are added, so when the
   whole-device instance is seeded every candidate is. *)
let seeded options ~arch circuit =
  let cnots = Circuit.cnots circuit in
  seeds options
    {
      Encoding.arch;
      num_logical = Circuit.num_qubits circuit;
      cnots = Array.of_list cnots;
      spots = Strategy.spots options.strategy cnots;
    }

(* The warm-start seed: the DP's optimal routing of the candidate.
   Relaxed strategies and n < m instances are routed over the same spots
   and dummies the encoding uses, so the routing is always encodable;
   under symmetry the DP keeps to lex-leader initial layouts, so the
   clauses cannot refute it. *)
let dp_seed ~(options : options) inst =
  if not (seeds options inst) then None
  else
    Trace.with_span ~name:"mapper.warm_start" (fun () ->
        Dp_exact.solve ~costs:options.costs
          ~symmetry:(effective_symmetry options) inst)

let solve_instance ~(options : options) ~cancel ~deadline ~bound inst =
  (* A seed costlier than the enforced bound would only be refuted. *)
  let seed =
    match (dp_seed ~options inst, bound) with
    | Some (r : Dp_exact.routing), Some b when r.cost > b -> None
    | seed, _ -> seed
  in
  (* The optimizer builds its PB circuit capped at the enforced bound,
     or else just below the first model's cost, which the seed's cost
     predicts; the solver is sized for that circuit too. *)
  let pb_cap =
    if bound <> None then bound
    else Option.map (fun (r : Dp_exact.routing) -> r.cost - 1) seed
  in
  let solver =
    Solver.create
      ~capacity:(Encoding.var_capacity_hint ~costs:options.costs ?pb_cap inst)
      ()
  in
  if options.certificate then Solver.enable_proof solver;
  (match cancel with
  | Some c -> Solver.set_stop solver (Some (Cancel.flag c))
  | None -> ());
  let cnf = Cnf.create solver in
  let built =
    Trace.with_span ~name:"mapper.encode" (fun () ->
        Encoding.build ~amo:options.amo ~costs:options.costs
          ~symmetry:(effective_symmetry options) cnf inst)
  in
  let warm_start =
    Option.map
      (fun (r : Dp_exact.routing) ->
        Encoding.routing_assumptions built ~layouts:r.layouts ~flips:r.flips)
      seed
  in
  let outcome =
    Trace.with_span ~name:"mapper.solve" (fun () ->
        Minimize.minimize ?deadline ~conflict_limit:options.conflict_limit
          ?upper_bound:bound ?warm_start ~cnf
          ~objective:(Encoding.objective built) ())
  in
  let stats = Solver.stats solver in
  let solved ?model ~layouts ~cost ~optimal () =
    {
      s_model = model;
      s_layouts = layouts;
      s_built = built;
      s_cost = cost;
      s_optimal = optimal;
      s_solves = outcome.solves;
      s_stats = stats;
      s_proof = outcome.proof;
      s_bounds = outcome.bounds;
      s_pb_cap = outcome.pb_cap;
    }
  in
  match outcome with
  | { unsatisfiable = true; _ } -> `Unsat stats
  | { model = Some model; cost = Some cost; optimal; _ } ->
      `Model
        (solved ~model ~layouts:(Encoding.mapping_of_model built model) ~cost
           ~optimal ())
  | _ -> (
      (* The descent ended with no model (a fault, the deadline or a
         cancel cut it first): the seed is the floor.  Its layouts are
         cut to the logical qubits, so the replay picks the cheapest
         movement of the dummies, as for a model. *)
      match seed with
      | Some r ->
          `Model
            (solved
               ~layouts:
                 (Array.map (fun l -> Array.sub l 0 inst.num_logical) r.layouts)
               ~cost:r.cost ~optimal:false ())
      | None -> `Budget stats)

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
  | C_dropped of { optimal : bool; solves : int; stats : Solver.stats }

let run ?(options = default) ?pool ?cancel ~arch circuit =
  let start = Unix.gettimeofday () in
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
  let largest = Coupling.largest_component arch in
  if n > m then Error (Too_many_logical { logical = n; physical = m })
  else if n > largest then Error (Disconnected { logical = n; largest })
  else begin
    let cnots = Array.of_list (Circuit.cnots circuit) in
    let spots = Strategy.spots options.strategy (Array.to_list cnots) in
    let reported_gprime =
      Strategy.reported_size options.strategy (Array.to_list cnots)
    in
    (* Candidate sub-architectures: (coupling, back-map to device), one
       per maximal isomorphism class of connected subsets.  Relabelling
       by an isomorphism preserves every solution's cost, so a class
       shares one optimum; its representative is the lowest-indexed
       member and wins every tie, so the other members could never
       replace it as the incumbent and inherit its verdict unsolved.  A
       class whose graph embeds into another's can never be cheaper
       than it, so it too takes the verdict of a class that contains it
       (at a tie that class wins, even from a higher index).  A
       disconnected device has no whole-device encoding, so it always
       takes this path (then [n <= largest < m]). *)
    let candidates, subsets_tried =
      if (options.use_subsets && n < m) || largest < m then
        ( List.map (Coupling.induce arch) (Subsets.maximal_classes arch n),
          Subsets.count_connected arch n )
      else ([ (arch, Array.init m Fun.id) ], 1)
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
    let stopped () =
      (match deadline with
      | Some d -> Unix.gettimeofday () > d
      | None -> false)
      || match cancel with Some c -> Cancel.cancelled c | None -> false
    in
    let run_candidate index (sub_arch, _back) =
      Trace.with_span ~name:"mapper.candidate"
        ~args:
          [
            ("index", Trace.Int index);
            ("qubits", Trace.Int (Coupling.num_qubits sub_arch));
          ]
      @@ fun () ->
      if stopped () then C_skipped
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
              solve_instance ~options ~cancel ~deadline ~bound
                (inst_of sub_arch)
            with
            | `Unsat stats -> C_unsat { via_incumbent; stats }
            | `Budget stats -> C_budget stats
            | `Model s ->
                if Incumbent.offer incumbent ~cost:s.s_cost ~index then
                  C_kept s
                else
                  C_dropped
                    {
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
        let s =
          if sequential || stopped () then s
          else
            match
              Trace.with_span ~name:"mapper.canonical_resolve" (fun () ->
                  solve_instance ~options ~cancel ~deadline
                    ~bound:(Some best_cost) (inst_of sub_arch))
            with
            | `Model s2 ->
                add_stats s2.s_stats;
                solves := !solves + s2.s_solves;
                (* a re-solve the deadline cut keeps the race model (and
                   the race's own optimality verdict) instead of adopting
                   a weaker anytime model *)
                if s2.s_optimal then s2 else s
            | `Unsat st | `Budget st ->
                add_stats st;
                s
        in
        let m_inst = Coupling.num_qubits sub_arch in
        let mapped_inst, init_l, final_l, init_full, final_full =
          Trace.with_span ~name:"mapper.reconstruct" (fun () ->
              reconstruct s.s_built s.s_layouts circuit m_inst)
        in
        let verified =
          if options.verify then
            Trace.with_span ~name:"mapper.verify" (fun () ->
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
          match s.s_model with
          | Some model when options.certificate ->
              Some
                {
                  w_sub_arch = sub_arch;
                  w_back = back;
                  w_model = model;
                  w_cost = s.s_cost;
                  w_mapped_inst = mapped_inst;
                  w_init_full = init_full;
                  w_final_full = final_full;
                  w_proof = s.s_proof;
                  w_bounds = s.s_bounds;
                  w_pb_cap = s.s_pb_cap;
                  w_symmetry = Encoding.symmetry s.s_built;
                }
          | _ -> None
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
            dp_incumbent = s.s_model = None;
            runtime = Unix.gettimeofday () -. start;
            reported_gprime;
            subsets_tried;
            solves = !solves;
            verified;
            workers;
            pruned_by_incumbent = !pruned;
            sat_stats = !sat_stats;
            strategy_name = Strategy.name options.strategy;
            witness;
          }
        in
        if !pruned > 0 then Metrics.add candidates_pruned !pruned;
        Ok report
  end
