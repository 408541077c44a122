(* Tests for the SAT-based minimizer. *)

open Test_util
module Lit = Qxm_sat.Lit
module Solver = Qxm_sat.Solver
module Fault = Qxm_sat.Fault
module Cnf = Qxm_encode.Cnf
module Minimize = Qxm_opt.Minimize

let objective_gen =
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
    let* nobj = int_range 0 nvars in
    let* weights = list_size (return nobj) (int_range 1 9) in
    let objective = List.mapi (fun v w -> (w, Lit.pos v)) weights in
    return (nvars, clauses, objective))

let minimize_matches_brute_force =
  qtest ~count:200 "minimize (linear) matches brute force" objective_gen
    (fun (nvars, clauses, objective) ->
      let s = solver_with nvars in
      let cnf = Cnf.create s in
      List.iter (Cnf.add cnf) clauses;
      let outcome = Minimize.minimize ~cnf ~objective () in
      match brute_min nvars clauses objective with
      | None -> outcome.unsatisfiable && outcome.cost = None
      | Some expected -> (
          outcome.optimal
          && outcome.cost = Some expected
          &&
          match outcome.model with
          | Some m ->
              (* model must satisfy the original clauses and achieve cost *)
              eval_clauses clauses (fun v -> m.(v))
              && Minimize.cost_of_model objective m = expected
          | None -> false))

let test_zero_objective () =
  let s = solver_with 2 in
  let cnf = Cnf.create s in
  Cnf.add cnf [ Lit.pos 0 ];
  let outcome = Minimize.minimize ~cnf ~objective:[] () in
  Alcotest.(check (option int)) "cost 0" (Some 0) outcome.cost;
  Alcotest.(check bool) "optimal" true outcome.optimal

let test_unsat_hard () =
  let s = solver_with 1 in
  let cnf = Cnf.create s in
  Cnf.add cnf [ Lit.pos 0 ];
  Cnf.add cnf [ Lit.neg_of 0 ];
  let outcome = Minimize.minimize ~cnf ~objective:[ (3, Lit.pos 0) ] () in
  Alcotest.(check bool) "unsat" true outcome.unsatisfiable;
  Alcotest.(check (option int)) "no cost" None outcome.cost

let test_forced_cost () =
  (* x0 forced true with weight 5; x1 free with weight 2 *)
  let s = solver_with 2 in
  let cnf = Cnf.create s in
  Cnf.add cnf [ Lit.pos 0 ];
  let outcome =
    Minimize.minimize ~cnf
      ~objective:[ (5, Lit.pos 0); (2, Lit.pos 1) ]
      ()
  in
  Alcotest.(check (option int)) "pays only forced" (Some 5) outcome.cost

let test_negated_literals_in_objective () =
  (* weight on ¬x0, x0 forced false -> cost counts *)
  let s = solver_with 1 in
  let cnf = Cnf.create s in
  Cnf.add cnf [ Lit.neg_of 0 ];
  let outcome =
    Minimize.minimize ~cnf ~objective:[ (3, Lit.neg_of 0) ] ()
  in
  Alcotest.(check (option int)) "cost 3" (Some 3) outcome.cost

let test_deadline_returns_best_effort () =
  let s = solver_with 4 in
  let cnf = Cnf.create s in
  Cnf.add cnf [ Lit.pos 0; Lit.pos 1 ];
  let outcome =
    Minimize.minimize
      ~deadline:(Unix.gettimeofday () +. 10.0)
      ~cnf
      ~objective:[ (1, Lit.pos 0); (1, Lit.pos 1) ]
      ()
  in
  Alcotest.(check (option int)) "min 1" (Some 1) outcome.cost

(* -- anytime behavior under exhausted budgets ---------------------------- *)

(* A deadline that has already passed: the very first solve is cut off,
   so there is no model to report — but the outcome must say so honestly
   (not optimal, not unsatisfiable) instead of raising. *)
let test_deadline_already_expired () =
  let s = solver_with 2 in
  let cnf = Cnf.create s in
  Cnf.add cnf [ Lit.pos 0; Lit.pos 1 ];
  let outcome =
    Minimize.minimize
      ~deadline:(Unix.gettimeofday () -. 1.0)
      ~cnf
      ~objective:[ (1, Lit.pos 0); (1, Lit.pos 1) ]
      ()
  in
  Alcotest.(check bool) "not optimal" false outcome.optimal;
  Alcotest.(check bool) "not unsat" false outcome.unsatisfiable;
  Alcotest.(check (option int)) "no cost" None outcome.cost

(* The deterministic stand-in for a deadline expiring mid-descent: the
   first solve finds a model, then the injected budget cuts the search.
   The model must be surfaced as an incumbent with [optimal = false]. *)
let test_budget_exhaustion_keeps_incumbent () =
  let s = solver_with 2 in
  let cnf = Cnf.create s in
  let clauses = [ [ Lit.pos 0; Lit.pos 1 ] ] in
  List.iter (Cnf.add cnf) clauses;
  let objective = [ (1, Lit.pos 0); (1, Lit.pos 1) ] in
  let outcome =
    Fault.with_schedule (Fault.After_solves 1) (fun () ->
        Minimize.minimize ~cnf ~objective ())
  in
  Alcotest.(check bool) "not optimal" false outcome.optimal;
  match outcome.model with
  | None -> Alcotest.fail "expected the first solve's model as incumbent"
  | Some m ->
      Alcotest.(check bool) "model satisfies clauses" true
        (model_satisfies clauses m);
      Alcotest.(check (option int))
        "reported cost is the model's cost"
        (Some (Minimize.cost_of_model objective m))
        outcome.cost

(* Tightening the budget never yields a *worse* reported cost than a
   looser budget on the same instance: the anytime descent only ever
   improves its incumbent.  [After_solves k] is the deterministic proxy
   for "deadline allowing k solve calls". *)
let test_anytime_cost_monotone_in_budget () =
  let clauses =
    [
      [ Lit.pos 0; Lit.pos 1; Lit.pos 2; Lit.pos 3 ];
      [ Lit.neg_of 0; Lit.pos 2 ];
      [ Lit.neg_of 1; Lit.pos 3 ];
    ]
  in
  let objective =
    [ (8, Lit.pos 0); (4, Lit.pos 1); (2, Lit.pos 2); (1, Lit.pos 3) ]
  in
  let cost_with_budget k =
    let s = solver_with 4 in
    let cnf = Cnf.create s in
    List.iter (Cnf.add cnf) clauses;
    Fault.with_schedule (Fault.After_solves k) (fun () ->
        Minimize.minimize ~cnf ~objective ())
  in
  let expected =
    match brute_min 4 clauses objective with
    | Some v -> v
    | None -> Alcotest.fail "instance should be satisfiable"
  in
  let last = ref max_int in
  for k = 1 to 8 do
    let outcome = cost_with_budget k in
    match outcome.cost with
    | None -> Alcotest.failf "budget %d: no model" k
    | Some c ->
        if c > !last then
          Alcotest.failf "budget %d worsened the cost: %d > %d" k c !last;
        if c < expected then
          Alcotest.failf "budget %d beat the brute-force optimum?!" k;
        last := c;
        if outcome.optimal then
          Alcotest.(check int) "optimal run matches brute force" expected c
  done;
  (* with the fault schedule never firing, the descent must finish *)
  Alcotest.(check int) "generous budget reaches the optimum" expected !last

(* Per-call conflict limits keep every answer sound: an aggressively
   truncated minimization may stop early, but any model it reports still
   satisfies the clauses and never beats the true optimum. *)
let truncated_minimize_is_sound =
  qtest ~count:100 "conflict-limited minimize stays sound" objective_gen
    (fun (nvars, clauses, objective) ->
      let s = solver_with nvars in
      let cnf = Cnf.create s in
      List.iter (Cnf.add cnf) clauses;
      let outcome =
        Minimize.minimize ~conflict_limit:1 ~cnf ~objective ()
      in
      match (outcome.model, outcome.cost) with
      | None, None -> true
      | Some m, Some c -> (
          eval_clauses clauses (fun v -> m.(v))
          && Minimize.cost_of_model objective m = c
          &&
          match brute_min nvars clauses objective with
          | Some best -> c >= best && ((not outcome.optimal) || c = best)
          | None -> false)
      | _ -> false)

(* With proof logging on, an optimal descent surfaces the DRUP proof of
   its final UNSAT answer and the bounds it enforced, the two inputs a
   certificate needs. *)
let test_descent_proof_and_bounds () =
  let clauses = [ [ Lit.pos 0; Lit.pos 1 ]; [ Lit.neg_of 0; Lit.pos 1 ] ] in
  let objective = [ (2, Lit.pos 0); (1, Lit.pos 1) ] in
  let s = solver_with 2 in
  Solver.enable_proof s;
  let cnf = Cnf.create s in
  List.iter (Cnf.add cnf) clauses;
  let outcome = Minimize.minimize ~cnf ~objective () in
  Alcotest.(check bool) "linear optimal" true outcome.optimal;
  Alcotest.(check (option int)) "linear cost" (Some 1) outcome.cost;
  Alcotest.(check bool) "linear has proof" true (outcome.proof <> None);
  Alcotest.(check bool) "linear has enforced bounds" true
    (outcome.bounds <> []);
  (* A seeded bound builds the circuit at that bound and is the first
     one enforced; the only model under it costs 1, so the descent then
     enforces 0 and proves it. *)
  let s = solver_with 2 in
  let cnf = Cnf.create s in
  List.iter (Cnf.add cnf) clauses;
  let seeded = Minimize.minimize ~cnf ~objective ~upper_bound:2 () in
  Alcotest.(check (option int)) "capped at the seeded bound" (Some 2)
    seeded.pb_cap;
  Alcotest.(check (list int)) "seeded bound enforced first" [ 2; 0 ]
    seeded.bounds;
  Alcotest.(check (option int)) "seeded cost" (Some 1) seeded.cost;
  Alcotest.(check bool) "seeded optimal" true seeded.optimal

let suite =
  [
    minimize_matches_brute_force;
    ("zero objective", `Quick, test_zero_objective);
    ("unsat hard clauses", `Quick, test_unsat_hard);
    ("forced cost", `Quick, test_forced_cost);
    ("negated objective literal", `Quick, test_negated_literals_in_objective);
    ("deadline best effort", `Quick, test_deadline_returns_best_effort);
    ("deadline already expired", `Quick, test_deadline_already_expired);
    ("budget exhaustion keeps incumbent", `Quick,
     test_budget_exhaustion_keeps_incumbent);
    ("anytime cost monotone in budget", `Quick,
     test_anytime_cost_monotone_in_budget);
    truncated_minimize_is_sound;
    ("descent proof and enforced bounds", `Quick,
     test_descent_proof_and_bounds);
  ]
