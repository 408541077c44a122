(* Tests for the solver-core performance layer: clause-tier management,
   learned-clause minimization, and warm-start seeds.

   The properties here are about *preservation*: none of the machinery
   that deletes, shortens, or reorders clauses may change which formulas
   are satisfiable or which models are acceptable, and none of the
   phase or seed hooks may change which cost is optimal. *)

open Test_util
module Lit = Qxm_sat.Lit
module Solver = Qxm_sat.Solver
module Cnf = Qxm_encode.Cnf
module Minimize = Qxm_opt.Minimize

let add_all s clauses = List.iter (Solver.add_clause s) clauses

(* Pigeonhole principle with [holes] holes: unsatisfiable, and hard
   enough to generate conflicts, restarts, learned clauses of every glue
   bucket, and minimization work. *)
let pigeonhole s holes =
  let v p h = Lit.pos ((p * holes) + h) in
  for _ = 1 to (holes + 1) * holes do
    ignore (Solver.new_var s)
  done;
  for p = 0 to holes do
    Solver.add_clause s (List.init holes (fun h -> v p h))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to holes do
      for p2 = p1 + 1 to holes do
        Solver.add_clause s [ Lit.negate (v p1 h); Lit.negate (v p2 h) ]
      done
    done
  done

(* -- preservation properties --------------------------------------------- *)

(* Phase seeding must never change the answer, only the search path:
   seeding every phase one way, with one variable flipped, still yields
   the brute-force verdict. *)
let test_phases_preserve_answer =
  qtest ~count:300 "set_phase preserves the answer"
    QCheck2.Gen.(pair (cnf_gen ~max_vars:8 ~max_clauses:30 ~max_len:4) bool)
    (fun ((nvars, clauses), invert) ->
      let s = solver_with nvars in
      add_all s clauses;
      for v = 0 to nvars - 1 do
        Solver.set_phase s v invert
      done;
      Solver.set_phase s 0 (not invert);
      let expected = brute_sat nvars clauses in
      match Solver.solve s with
      | Solver.Sat -> expected && model_satisfies clauses (Solver.model s)
      | Solver.Unsat -> not expected
      | Solver.Unknown -> false)

(* -- determinism ---------------------------------------------------------- *)

(* Identical input must produce bit-identical statistics: the tiered
   reduction and minimization layers contain no hidden
   nondeterminism (no randomness, no clock dependence without a
   deadline). *)
let test_deterministic_stats () =
  let run () =
    let s = Solver.create () in
    pigeonhole s 5;
    let r = Solver.solve s in
    Alcotest.(check bool) "unsat" true (r = Solver.Unsat);
    Solver.stats s
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical stats" true (a = b)

(* The hard instance must actually exercise the new machinery. *)
let test_counters_fire () =
  let s = Solver.create () in
  pigeonhole s 5;
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  let st = Solver.stats s in
  Alcotest.(check bool) "conflicts" true (st.conflicts > 0);
  Alcotest.(check bool) "glue histogram populated" true
    (st.glue_1 + st.glue_2 + st.glue_3_4 + st.glue_5_8 + st.glue_9_plus > 0);
  Alcotest.(check bool) "binary watch propagations" true
    (st.binary_propagations > 0);
  Alcotest.(check bool) "minimization fired" true (st.minimized_lits > 0)

(* The hot loop is allocation-free by construction: clauses live in the
   flat arena, watchers in one unboxed pool per watch-list family,
   analysis reuses scratch buffers, and the VSIDS heap compares
   activities as unboxed floats; an arena collection remaps the pools in
   place.  What still allocates is deliberate, periodic maintenance —
   clause-database reduction — which amounts to a few words per
   propagation on a deep search.  Pigeonhole 8 does about 200,000
   propagations, enough work to measure.  The budget below, 8 words
   per propagation, leaves room for that while failing loudly if a
   boxed representation (tens of words per propagation, as with
   polymorphic compare in the branching heap) ever creeps back into the
   search path. *)
let test_allocation_free_hot_loop () =
  let s = Solver.create () in
  pigeonhole s 8;
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  let st = Solver.stats s in
  Alcotest.(check bool) "enough work to measure" true
    (st.propagations > 100_000);
  let words_per_prop =
    float_of_int st.minor_words /. float_of_int st.propagations
  in
  if words_per_prop > 8.0 then
    Alcotest.failf
      "search allocates: %d minor words over %d propagations (%.3f \
       words/prop, budget 8.0)"
      st.minor_words st.propagations words_per_prop

(* Set-up allocates a few dozen objects: the per-variable and per-literal
   arrays and both watch pools are each one array, and arrays this large
   go straight to the major heap.  Per-literal records would each be
   promoted by the next minor collection (two per literal, about 48
   words per variable).  The promoted-word counter repeats exactly on one
   domain, so this gates without a clock. *)
let test_create_promotes_little () =
  Gc.minor ();
  let _, before, _ = Gc.counters () in
  let s = Solver.create ~capacity:2000 () in
  Gc.minor ();
  let _, after, _ = Gc.counters () in
  ignore (Sys.opaque_identity s);
  let promoted = int_of_float (after -. before) in
  if promoted >= 2000 then
    Alcotest.failf
      "Solver.create ~capacity:2000 promoted %d words (budget: under 2000)"
      promoted

(* -- pinned search ---------------------------------------------------------- *)

(* A kernel change that claims to keep the search (same decisions,
   conflicts and propagations, only faster) must reproduce these counts
   exactly.  They were recorded before the watch lists moved into one
   pool per family and the VSIDS heap started percolating with a hole;
   a change that moves them changed the search, not just its speed.
   Deleting restart-boundary inprocessing (backward subsumption and
   vivification) changed the search on purpose: pigeonhole 7 was
   re-pinned then (it read 4,299 / 5,158 / 117,012 with inprocessing).
   The 3_17_13 solve never reaches ten restarts, so its counts did not
   move. *)
let pinned_counts name (st : Solver.stats) (conflicts, decisions, props) =
  Alcotest.(check (list int))
    (name ^ ": conflicts, decisions, propagations")
    [ conflicts; decisions; props ]
    [ st.conflicts; st.decisions; st.propagations ]

let test_pinned_pigeonhole () =
  let s = Solver.create () in
  pigeonhole s 7;
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  pinned_counts "pigeonhole 7" (Solver.stats s) (3922, 4841, 52865)

(* Table 1's 3_17_13 under the [Minimal] strategy on the QX4 triangle
   {0, 1, 2}, minimized cold (no warm start) to its proven optimum. *)
let test_pinned_minimal_encoding () =
  let module Encoding = Qxm_exact.Encoding in
  let entry = Option.get (Qxm_benchmarks.Suite.by_name "3_17_13") in
  let cnots = Qxm_circuit.Circuit.cnots entry.circuit in
  let arch, _ = Qxm_arch.Coupling.induce Qxm_arch.Devices.qx4 [ 0; 1; 2 ] in
  let inst =
    {
      Encoding.arch;
      num_logical = 3;
      cnots = Array.of_list cnots;
      spots = Qxm_exact.Strategy.spots Qxm_exact.Strategy.Minimal cnots;
    }
  in
  let s = Solver.create ~capacity:(Encoding.var_capacity_hint inst) () in
  let cnf = Cnf.create s in
  let built = Encoding.build cnf inst in
  let o = Minimize.minimize ~cnf ~objective:(Encoding.objective built) () in
  Alcotest.(check bool) "optimal" true o.optimal;
  pinned_counts "3_17_13 minimal" (Solver.stats s) (688, 7391, 76693)

(* The mapper's own search path, which the two cold pins above miss:
   Table 1's 4gt11_83 under [Qubit_triangle] on all of QX4, seeded as
   [Mapper] seeds it.  The DP routing goes in as [~warm_start], so the
   first solve runs the assumption loop before the descent proves the
   DP's cost optimal.  Recorded before the solver's hot paths stopped
   calling into [Lit], [Vec] and [Arena]. *)
let test_pinned_seeded_encoding () =
  let module Encoding = Qxm_exact.Encoding in
  let entry = Option.get (Qxm_benchmarks.Suite.by_name "4gt11_83") in
  let cnots = Qxm_circuit.Circuit.cnots entry.circuit in
  let arch, _ =
    Qxm_arch.Coupling.induce Qxm_arch.Devices.qx4 [ 0; 1; 2; 3; 4 ]
  in
  let inst =
    {
      Encoding.arch;
      num_logical = 5;
      cnots = Array.of_list cnots;
      spots =
        Qxm_exact.Strategy.spots Qxm_exact.Strategy.Qubit_triangle cnots;
    }
  in
  let s = Solver.create ~capacity:(Encoding.var_capacity_hint inst) () in
  let cnf = Cnf.create s in
  let built = Encoding.build cnf inst in
  let dp = Option.get (Qxm_exact.Dp_exact.solve inst) in
  let warm_start =
    Encoding.routing_assumptions built ~layouts:dp.layouts ~flips:dp.flips
  in
  let o =
    Minimize.minimize ~cnf ~objective:(Encoding.objective built) ~warm_start ()
  in
  Alcotest.(check bool) "optimal" true o.optimal;
  Alcotest.(check (option int)) "the DP's cost" (Some dp.cost) o.cost;
  pinned_counts "4gt11_83 triangle, seeded" (Solver.stats s)
    (1842, 3165, 123106)

(* The mapper sizes each solver once, up front, for its encoding and for
   the PB circuit the descent builds over the objective.  On the seven
   hard 5-qubit rows, built the way [Mapper] builds its whole-device
   candidate (the DP's F* known before the solver exists, the PB circuit
   capped at F* - 1), the solver never outgrows that size: no
   per-variable array is regrown after creation. *)
let test_presized_for_pb_circuit () =
  let module Encoding = Qxm_exact.Encoding in
  let module Strategy = Qxm_exact.Strategy in
  List.iter
    (fun (name, f_star) ->
      let entry = Option.get (Qxm_benchmarks.Suite.by_name name) in
      let cnots = Qxm_circuit.Circuit.cnots entry.circuit in
      let inst =
        {
          Encoding.arch = Qxm_arch.Devices.qx4;
          num_logical = 5;
          cnots = Array.of_list cnots;
          spots = Strategy.spots Strategy.Minimal cnots;
        }
      in
      let pb_cap = f_star - 1 in
      let capacity = Encoding.var_capacity_hint ~pb_cap inst in
      let s = Solver.create ~capacity () in
      let cnf = Cnf.create s in
      let built =
        Encoding.build ~symmetry:Qxm_exact.Mapper.default.symmetry cnf inst
      in
      ignore (Qxm_encode.Pb.build ~cap:pb_cap cnf (Encoding.objective built));
      if Solver.nvars s > capacity then
        Alcotest.failf "%s: %d variables in a solver sized for %d" name
          (Solver.nvars s) capacity)
    hard_rows

let test_stats_sum () =
  let s = Solver.create () in
  pigeonhole s 4;
  ignore (Solver.solve s);
  let st = Solver.stats s in
  let sum = Solver.add_stats st Solver.zero_stats in
  Alcotest.(check bool) "zero is the unit" true (sum = st);
  let twice = Solver.add_stats st st in
  Alcotest.(check int) "field-wise sum" (2 * st.conflicts) twice.conflicts

(* -- warm starts ---------------------------------------------------------- *)

let warm_objective_gen =
  QCheck2.Gen.(
    let* nvars = int_range 1 7 in
    let* nclauses = int_range 0 20 in
    let clause =
      list_size (int_range 1 3)
        (let* v = int_range 0 (nvars - 1) in
         let* s = bool in
         return (Lit.make v s))
    in
    let* clauses = list_size (return nclauses) clause in
    let* weights = list_size (return nvars) (int_range 1 9) in
    let objective = List.mapi (fun v w -> (w, Lit.pos v)) weights in
    return (nvars, clauses, objective))

let seed_rejections () =
  Qxm_obs.Metrics.count (Qxm_obs.Metrics.snapshot ()) "minimize.seed_rejected"

(* The brute-force model that the warm-start cases seed with: the first
   one, in binary counting order, achieving the optimum. *)
let optimal_witness nvars clauses objective expected =
  let witness = ref None in
  let assign = Array.make nvars false in
  let rec go i =
    if !witness <> None then ()
    else if i = nvars then begin
      if
        eval_clauses clauses (fun v -> assign.(v))
        && Minimize.cost_of_model objective assign = expected
      then witness := Some (Array.copy assign)
    end
    else begin
      assign.(i) <- false;
      go (i + 1);
      assign.(i) <- true;
      go (i + 1)
    end
  in
  go 0;
  Option.get !witness

let minimize_fresh ?warm_start nvars clauses objective =
  let s = solver_with nvars in
  let cnf = Cnf.create s in
  List.iter (Cnf.add cnf) clauses;
  Minimize.minimize ~cnf ~objective ?warm_start ()

let reaches expected (o : Minimize.outcome) clauses objective =
  o.optimal
  && o.cost = Some expected
  &&
  match o.model with
  | Some m ->
      eval_clauses clauses (fun v -> m.(v))
      && Minimize.cost_of_model objective m = expected
  | None -> false

(* Seeding the optimizer with an optimal model (as assumption literals,
   the way the mapper seeds the DP's routing) must reach the same
   optimum, never take more solver calls than the cold run, and never
   count as a rejected seed. *)
let test_warm_start_optimum =
  qtest ~count:200 "warm start: same optimum, no more solves"
    warm_objective_gen
    (fun (nvars, clauses, objective) ->
      match brute_min nvars clauses objective with
      | None -> true (* unsat instances carry no warm start *)
      | Some expected ->
          let witness = optimal_witness nvars clauses objective expected in
          let cold = minimize_fresh nvars clauses objective in
          let rejected = seed_rejections () in
          let warm =
            minimize_fresh nvars clauses objective
              ~warm_start:(List.init nvars (fun v -> Lit.make v witness.(v)))
          in
          reaches expected warm clauses objective
          && reaches expected cold clauses objective
          && warm.solves <= cold.solves
          && seed_rejections () = rejected)

(* A seed that falsifies a clause is refuted by its assumption solve; the
   plain solve that follows must still reach the brute-force optimum,
   and the rejection is counted. *)
let test_infeasible_seed_falls_back =
  qtest ~count:200 "warm start: infeasible seed falls back"
    warm_objective_gen
    (fun (nvars, clauses, objective) ->
      match (brute_min nvars clauses objective, clauses) with
      | None, _ | _, [] -> true
      | Some expected, clause :: _ ->
          let rejected = seed_rejections () in
          let warm =
            minimize_fresh nvars clauses objective
              ~warm_start:(List.map Lit.negate clause)
          in
          reaches expected warm clauses objective
          && seed_rejections () = rejected + 1)

let suite =
  [
    test_phases_preserve_answer;
    Alcotest.test_case "stats: deterministic across identical runs" `Quick
      test_deterministic_stats;
    Alcotest.test_case "stats: new counters fire on a hard instance" `Quick
      test_counters_fire;
    Alcotest.test_case "allocation: hot loop is (near) allocation-free" `Quick
      test_allocation_free_hot_loop;
    Alcotest.test_case "allocation: solver set-up promotes little" `Quick
      test_create_promotes_little;
    Alcotest.test_case "search: pinned counts on pigeonhole 7" `Quick
      test_pinned_pigeonhole;
    Alcotest.test_case "search: pinned counts on a Minimal encoding" `Quick
      test_pinned_minimal_encoding;
    Alcotest.test_case "search: pinned counts on a seeded triangle encoding"
      `Quick test_pinned_seeded_encoding;
    Alcotest.test_case "allocation: sized for the PB circuit up front" `Quick
      test_presized_for_pb_circuit;
    Alcotest.test_case "stats: zero/add algebra" `Quick test_stats_sum;
    test_warm_start_optimum;
    test_infeasible_seed_falls_back;
  ]
