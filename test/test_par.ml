(* Tests for the parallel mapping engine: the domain pool, the shared
   incumbent, cooperative cancellation, the solver's budget polling, the
   architecture-table caches, and — most importantly — the guarantee
   that every [jobs] value produces the same mapping. *)

open Test_util
module Pool = Qxm_par.Pool
module Incumbent = Qxm_par.Incumbent
module Cancel = Qxm_par.Cancel
module Solver = Qxm_sat.Solver
module Lit = Qxm_sat.Lit
module Mapper = Qxm_exact.Mapper
module Portfolio = Qxm_exact.Portfolio
module Certify = Qxm_exact.Certify
module Strategy = Qxm_exact.Strategy
module Circuit = Qxm_circuit.Circuit
module Gate = Qxm_circuit.Gate
module Coupling = Qxm_arch.Coupling
module Devices = Qxm_arch.Devices
module Subsets = Qxm_arch.Subsets
module Swap_count = Qxm_arch.Swap_count
module Examples = Qxm_benchmarks.Examples
module Suite = Qxm_benchmarks.Suite
module Generator = Qxm_benchmarks.Generator
module Trace = Qxm_obs.Trace

(* -- pool ----------------------------------------------------------------- *)

let test_pool_submit_await () =
  List.iter
    (fun width ->
      Pool.with_pool width (fun pool ->
          let fut = Pool.submit pool (fun () -> 6 * 7) in
          Alcotest.(check int)
            (Printf.sprintf "width %d" width)
            42 (Pool.await fut)))
    [ 1; 3 ]

let test_pool_await_all_order () =
  Pool.with_pool 4 (fun pool ->
      let futs =
        List.init 20 (fun i -> Pool.submit pool (fun () -> i * i))
      in
      Alcotest.(check (list int))
        "results in submission order"
        (List.init 20 (fun i -> i * i))
        (Pool.await_all futs))

exception Boom

let test_pool_exception () =
  List.iter
    (fun width ->
      Pool.with_pool width (fun pool ->
          let fut = Pool.submit pool (fun () -> raise Boom) in
          match Pool.await fut with
          | _ -> Alcotest.fail "expected the task's exception"
          | exception Boom -> ()))
    [ 1; 2 ]

(* A task that itself submits and awaits subtasks: the helping awaiter
   must run queued work instead of blocking, or this deadlocks when all
   workers sit inside outer tasks. *)
let test_pool_nested_no_deadlock () =
  Pool.with_pool 2 (fun pool ->
      let outer =
        List.init 4 (fun i ->
            Pool.submit pool (fun () ->
                let inner =
                  List.init 3 (fun j -> Pool.submit pool (fun () -> i + j))
                in
                List.fold_left ( + ) 0 (Pool.await_all inner)))
      in
      Alcotest.(check (list int))
        "nested fan-out" [ 3; 6; 9; 12 ] (Pool.await_all outer))

(* -- incumbent ------------------------------------------------------------ *)

let test_incumbent_order () =
  let t = Incumbent.create () in
  Alcotest.(check bool) "first offer wins" true
    (Incumbent.offer t ~cost:10 ~index:3);
  Alcotest.(check bool) "worse cost rejected" false
    (Incumbent.offer t ~cost:11 ~index:0);
  Alcotest.(check bool) "tie with higher index rejected" false
    (Incumbent.offer t ~cost:10 ~index:5);
  Alcotest.(check bool) "tie with lower index accepted" true
    (Incumbent.offer t ~cost:10 ~index:1);
  Alcotest.(check bool) "cheaper always accepted" true
    (Incumbent.offer t ~cost:9 ~index:4);
  match Incumbent.get t with
  | Some (9, 4) -> ()
  | _ -> Alcotest.fail "unexpected incumbent"

let test_incumbent_cap () =
  let t = Incumbent.create () in
  Alcotest.(check (option int)) "no incumbent, no cap" None
    (Incumbent.cap t ~index:0);
  ignore (Incumbent.offer t ~cost:10 ~index:3);
  (* later candidates must beat 10 strictly; earlier ones may tie *)
  Alcotest.(check (option int)) "later candidate" (Some 9)
    (Incumbent.cap t ~index:7);
  Alcotest.(check (option int)) "earlier candidate" (Some 10)
    (Incumbent.cap t ~index:1)

(* -- solver stop flag and budget polling ---------------------------------- *)

(* Pigeonhole formula: n+1 pigeons, n holes — small but not instant. *)
let php n =
  let s = Solver.create () in
  let v p h = Lit.pos ((p * n) + h) in
  for _ = 1 to (n + 1) * n do
    ignore (Solver.new_var s)
  done;
  for p = 0 to n do
    Solver.add_clause s (List.init n (fun h -> v p h))
  done;
  for h = 0 to n - 1 do
    for p1 = 0 to n do
      for p2 = p1 + 1 to n do
        Solver.add_clause s [ Lit.negate (v p1 h); Lit.negate (v p2 h) ]
      done
    done
  done;
  s

let test_solver_stop_flag () =
  let s = php 5 in
  let stop = Atomic.make true in
  Solver.set_stop s (Some stop);
  let t0 = Unix.gettimeofday () in
  (match Solver.solve s with
  | Solver.Unknown -> ()
  | _ -> Alcotest.fail "expected Unknown under a set stop flag");
  Alcotest.(check bool) "stopped promptly" true
    (Unix.gettimeofday () -. t0 < 5.0);
  (* the budget latch must reset per call: clearing the flag lets the
     same solver finish the instance *)
  Atomic.set stop false;
  (match Solver.solve s with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "expected Unsat once the flag is cleared");
  Solver.set_stop s None

let test_clock_polls_memoized () =
  (* an already-expired deadline is noticed on the very first check ... *)
  let s = php 5 in
  let deadline = Unix.gettimeofday () -. 1.0 in
  (match Solver.solve ~deadline s with
  | Solver.Unknown -> ()
  | _ -> Alcotest.fail "expected Unknown on an expired deadline");
  let st = Solver.stats s in
  Alcotest.(check bool) "clock consulted" true (st.clock_polls >= 1);
  (* ... and the clock is consulted at most once per 64 conflicts plus
     once per solve call *)
  let s2 = php 5 in
  let far = Unix.gettimeofday () +. 3600.0 in
  (match Solver.solve ~deadline:far s2 with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "expected Unsat under a distant deadline");
  let st2 = Solver.stats s2 in
  Alcotest.(check bool) "polling is memoized" true
    (st2.clock_polls <= (st2.conflicts / 64) + 1)

let test_clock_polls_off_without_deadline () =
  let s = php 5 in
  (match Solver.solve s with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "expected Unsat");
  Alcotest.(check int) "no deadline, no clock" 0 (Solver.stats s).clock_polls

(* -- architecture caches -------------------------------------------------- *)

let test_swap_table_cache () =
  let a = Swap_count.compute_cached Devices.qx4 in
  let b = Swap_count.compute_cached Devices.qx4 in
  Alcotest.(check bool) "same physical table" true (a == b);
  (* keyed on the canonical coupling form, not the value's identity *)
  let clone =
    Coupling.create
      ~num_qubits:(Coupling.num_qubits Devices.qx4)
      (Coupling.edges Devices.qx4)
  in
  Alcotest.(check bool) "canonical key" true
    (a == Swap_count.compute_cached clone)

let test_subsets_cache () =
  let a = Subsets.connected Devices.qx4 4 in
  let b = Subsets.connected Devices.qx4 4 in
  Alcotest.(check bool) "same physical list" true (a == b);
  Alcotest.(check int) "Ex. 9 count survives caching" 4 (List.length a)

let test_caches_concurrent () =
  let arch = Devices.line 6 in
  let tables =
    List.init 4 (fun _ -> Domain.spawn (fun () -> Swap_count.compute_cached arch))
    |> List.map Domain.join
  in
  match tables with
  | first :: rest ->
      List.iter
        (fun t ->
          Alcotest.(check bool) "all domains share one table" true (t == first))
        rest
  | [] -> assert false

(* -- cancellation --------------------------------------------------------- *)

let test_cancelled_mapper () =
  let cancel = Cancel.create () in
  Cancel.cancel cancel;
  match Mapper.run ~cancel ~arch:Devices.qx4 Examples.fig1a with
  | Error (Mapper.Timeout _) -> ()
  | Ok _ -> Alcotest.fail "a cancelled run must not produce a mapping"
  | Error _ -> Alcotest.fail "expected Timeout from a cancelled run"

(* -- parallel = sequential ------------------------------------------------ *)

let check_jobs_equivalent ?(strategy = Mapper.default.strategy)
    ?(fans_out = false) ~arch circuit =
  let run jobs =
    let options = { Mapper.default with jobs; strategy } in
    match Mapper.run ~options ~arch circuit with
    | Ok r -> r
    | Error e -> Alcotest.failf "jobs=%d failed: %a" jobs Mapper.pp_failure e
  in
  let r1 = run 1 in
  Alcotest.(check int) "sequential uses one worker" 1 r1.workers;
  List.iter
    (fun jobs ->
      let rj = run jobs in
      Alcotest.(check int) "f_cost" r1.f_cost rj.f_cost;
      Alcotest.(check int) "objective_cost" r1.objective_cost
        rj.objective_cost;
      Alcotest.(check int) "total_gates" r1.total_gates rj.total_gates;
      Alcotest.(check (array int)) "initial layout" r1.initial rj.initial;
      Alcotest.(check (array int)) "final layout" r1.final rj.final;
      Alcotest.(check bool) "verified" true (r1.verified = rj.verified);
      Alcotest.(check bool) "identical mapped gate list" true
        (Circuit.gates r1.mapped = Circuit.gates rj.mapped);
      Alcotest.(check bool) "worker count reported" true
        (rj.workers >= 1 && rj.workers <= jobs);
      if fans_out then
        Alcotest.(check bool) "the race ran in parallel" true (rj.workers > 1))
    [ 2; 4 ]

(* Above the inline threshold (cnots * n^2 = 272 > 256) with 4
   connected subsets in 2 maximal isomorphism classes on QX4: jobs 2
   and 4 really fan out. *)
let fan_out_circuit =
  Generator.random_circuit ~seed:4 ~qubits:4 ~cnots:17 ~singles:2

let test_jobs_equivalent_fig1a () =
  check_jobs_equivalent ~arch:Devices.qx4 Examples.fig1a

let test_jobs_equivalent_suite () =
  let e = Option.get (Suite.by_name "3_17_13") in
  check_jobs_equivalent ~arch:Devices.qx4 e.circuit

let test_jobs_equivalent_line5 () =
  check_jobs_equivalent ~arch:(Devices.line 5) Examples.fig1a

let test_jobs_equivalent_fan_out () =
  check_jobs_equivalent ~strategy:Strategy.Qubit_triangle ~fans_out:true
    ~arch:Devices.qx4 fan_out_circuit

(* Tracing must not perturb the parallel = sequential guarantee: the
   tracer's only shared state is per-domain append buffers, so enabling
   it changes no scheduling-visible behaviour. *)
let test_jobs_equivalent_traced () =
  let module Trace = Qxm_obs.Trace in
  Trace.reset ();
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
    (fun () ->
      check_jobs_equivalent ~arch:Devices.qx4 Examples.fig1a;
      Alcotest.(check bool) "the traced runs recorded events" true
        (Trace.events () <> []))

(* The canonical re-solve runs only when the race can fan out.  A race
   below the threshold is the same inline scan at every [jobs], so it
   keeps its race model and its counters do not depend on [jobs]. *)
let test_canonical_resolve_gated () =
  let module Trace = Qxm_obs.Trace in
  let resolves () =
    List.length
      (List.filter
         (fun (e : Trace.event) ->
           e.ph = `B && e.name = "mapper.canonical_resolve")
         (Trace.events ()))
  in
  let run ?(strategy = Mapper.default.strategy) ~jobs circuit =
    Trace.reset ();
    let options = { Mapper.default with jobs; strategy } in
    match Mapper.run ~options ~arch:Devices.qx4 circuit with
    | Ok r -> (r, resolves ())
    | Error e -> Alcotest.failf "jobs=%d failed: %a" jobs Mapper.pp_failure e
  in
  Trace.reset ();
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
    (fun () ->
      let e = Option.get (Suite.by_name "3_17_13") in
      let r1, n1 = run ~jobs:1 e.circuit in
      let r4, n4 = run ~jobs:4 e.circuit in
      Alcotest.(check int) "several candidates" 6 r1.subsets_tried;
      Alcotest.(check int) "no re-solve at jobs=1" 0 n1;
      Alcotest.(check int) "no re-solve at jobs=4" 0 n4;
      Alcotest.(check int) "solves independent of jobs" r1.solves r4.solves;
      Alcotest.(check int) "conflicts independent of jobs"
        r1.sat_stats.conflicts r4.sat_stats.conflicts;
      let _, nf =
        run ~strategy:Strategy.Qubit_triangle ~jobs:1 fan_out_circuit
      in
      Alcotest.(check int) "a race that can fan out re-solves once" 1 nf)

(* Once a candidate reaches F = 0, nothing beats it and every later
   candidate's cap is -1: those are pruned before encoding. *)
let test_zero_cost_prunes_before_encoding () =
  let module Trace = Qxm_obs.Trace in
  let encodes () =
    List.length
      (List.filter
         (fun (e : Trace.event) -> e.ph = `B && e.name = "mapper.encode")
         (Trace.events ()))
  in
  (* 1 -> 0, 2 -> 1 and 3 -> 2 are QX4 edges: F = 0 on the first
     subset.  At n = 4 QX4 has two maximal classes (at n = 3 only one,
     which leaves nothing to prune). *)
  let circuit =
    Circuit.create 4 [ Gate.Cnot (1, 0); Gate.Cnot (2, 1); Gate.Cnot (3, 2) ]
  in
  Trace.reset ();
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
    (fun () ->
      let options = { Mapper.default with jobs = 1 } in
      match Mapper.run ~options ~arch:Devices.qx4 circuit with
      | Error e -> Alcotest.failf "map failed: %a" Mapper.pp_failure e
      | Ok r ->
          Alcotest.(check int) "F = 0" 0 r.f_cost;
          Alcotest.(check bool) "optimal" true r.optimal;
          Alcotest.(check bool) "several candidates" true
            (r.subsets_tried > 1);
          Alcotest.(check int) "only the winner is encoded" 1 (encodes ());
          Alcotest.(check int) "two maximal classes" 2
            (List.length (Subsets.maximal_classes Devices.qx4 4));
          (* one candidate per maximal class is solved; the other
             subsets take the verdict of a class that contains them
             unsolved *)
          Alcotest.(check int) "every other class pruned"
            (List.length (Subsets.maximal_classes Devices.qx4 4) - 1)
            r.pruned_by_incumbent)

(* Property: incumbent pruning never changes the optimum — pruning off
   (sequential reference) and pruning on (any worker count) agree on
   cost and layouts. *)
let pruning_preserves_optimum =
  qtest ~count:8 "incumbent pruning preserves the optimum"
    QCheck2.Gen.(
      let* seed = int_range 0 10_000 in
      let* jobs = int_range 1 2 in
      return (seed, jobs))
    (fun (seed, jobs) ->
      let c = Generator.random_circuit ~seed ~qubits:3 ~cnots:5 ~singles:2 in
      let run ~jobs ~incumbent_pruning =
        let options =
          { Mapper.default with jobs; incumbent_pruning; verify = false }
        in
        match Mapper.run ~options ~arch:Devices.qx4 c with
        | Ok r -> Some (r.f_cost, r.objective_cost, r.initial, r.final)
        | Error _ -> None
      in
      run ~jobs:1 ~incumbent_pruning:false
      = run ~jobs ~incumbent_pruning:true)

(* -- portfolio ------------------------------------------------------------ *)

(* [jobs] only widens the exact stages' candidate race, so a run at
   [jobs = 2] matches the sequential one — with or without a wall-clock
   budget. *)
let check_portfolio_jobs_equivalent ~budget =
  let run jobs =
    let options = { Portfolio.default with jobs; budget } in
    match Portfolio.run ~options ~arch:Devices.qx4 Examples.fig1a with
    | Ok r -> r
    | Error _ -> Alcotest.failf "portfolio jobs=%d failed" jobs
  in
  let seq = run 1 and par = run 2 in
  Alcotest.(check int) "f_cost" seq.f_cost par.f_cost;
  Alcotest.(check string) "provenance"
    (Portfolio.provenance_string seq.provenance)
    (Portfolio.provenance_string par.provenance);
  Alcotest.(check bool) "both prove optimality" true
    (seq.optimal && par.optimal);
  Alcotest.(check bool) "verified" true (par.verified = Some true)

let test_portfolio_race_matches_sequential () =
  check_portfolio_jobs_equivalent ~budget:None

let test_portfolio_race_budgeted () =
  check_portfolio_jobs_equivalent ~budget:(Some 60.0)

(* The caller's supervisor token reaches the solvers directly: cancelling
   it mid-solve on an instance whose unlimited rung would run for a long
   time ends the run promptly, with that rung's certified incumbent.
   qe_qft_4 is DP-seeded, so its only exact rung is [exact:unlimited],
   whose first model is the seed and whose refutation of F*-1 runs far
   past this test; a trace sink cancels on the first
   [minimize.incumbent] instant, i.e. once the rung holds a model. *)
let test_portfolio_supervisor_cancel () =
  let e = Option.get (Suite.by_name "qe_qft_4") in
  let cancel = Cancel.create () in
  Trace.set_sink
    (Some
       (fun (ev : Trace.event) ->
         if ev.ph = `I && ev.name = "minimize.incumbent" then
           Cancel.cancel cancel));
  let t0 = Unix.gettimeofday () in
  match
    Fun.protect
      ~finally:(fun () -> Trace.set_sink None)
      (fun () -> Portfolio.run ~cancel ~arch:Devices.qx4 e.circuit)
  with
  | Ok r ->
      Alcotest.(check bool) "returns promptly" true
        (Unix.gettimeofday () -. t0 < 10.0);
      Alcotest.(check bool) "the token was cancelled" true
        (Cancel.cancelled cancel);
      Alcotest.(check bool) "carries the cancelled note" true
        (List.mem "cancelled" r.notes);
      Alcotest.(check bool) "certified answer" true
        (Certify.compliance ~arch:Devices.qx4 r.elementary = Ok ()
        && r.verified <> Some false);
      Alcotest.(check string) "the ladder's incumbent" "exact-incumbent"
        (Portfolio.provenance_string r.provenance);
      Alcotest.(check bool) "no probe stage" false
        (List.exists
           (fun (s : Portfolio.stage) ->
             String.starts_with ~prefix:"probe:" s.stage)
           r.stages)
  | Error e ->
      Alcotest.failf "cancelled run returned nothing: %a" Portfolio.pp_failure
        e

let suite =
  [
    Alcotest.test_case "pool: submit/await" `Quick test_pool_submit_await;
    Alcotest.test_case "pool: await_all order" `Quick test_pool_await_all_order;
    Alcotest.test_case "pool: exceptions propagate" `Quick test_pool_exception;
    Alcotest.test_case "pool: nested submits don't deadlock" `Quick
      test_pool_nested_no_deadlock;
    Alcotest.test_case "incumbent: lexicographic order" `Quick
      test_incumbent_order;
    Alcotest.test_case "incumbent: asymmetric cap" `Quick test_incumbent_cap;
    Alcotest.test_case "solver: stop flag" `Quick test_solver_stop_flag;
    Alcotest.test_case "solver: clock polling memoized" `Quick
      test_clock_polls_memoized;
    Alcotest.test_case "solver: no deadline, no clock polls" `Quick
      test_clock_polls_off_without_deadline;
    Alcotest.test_case "cache: swap tables shared" `Quick test_swap_table_cache;
    Alcotest.test_case "cache: connected subsets shared" `Quick
      test_subsets_cache;
    Alcotest.test_case "cache: concurrent construction" `Quick
      test_caches_concurrent;
    Alcotest.test_case "mapper: cancelled run reports Timeout" `Quick
      test_cancelled_mapper;
    Alcotest.test_case "mapper: jobs equivalence (fig1a/qx4)" `Quick
      test_jobs_equivalent_fig1a;
    Alcotest.test_case "mapper: jobs equivalence (3_17_13/qx4)" `Slow
      test_jobs_equivalent_suite;
    Alcotest.test_case "mapper: jobs equivalence (fig1a/line5)" `Quick
      test_jobs_equivalent_line5;
    Alcotest.test_case "mapper: jobs equivalence with tracing on" `Quick
      test_jobs_equivalent_traced;
    Alcotest.test_case "mapper: jobs equivalence (parallel race)" `Quick
      test_jobs_equivalent_fan_out;
    Alcotest.test_case "mapper: re-solve only when the race fans out" `Quick
      test_canonical_resolve_gated;
    Alcotest.test_case "mapper: F = 0 prunes before encoding" `Quick
      test_zero_cost_prunes_before_encoding;
    pruning_preserves_optimum;
    Alcotest.test_case "portfolio: race matches sequential" `Quick
      test_portfolio_race_matches_sequential;
    Alcotest.test_case "portfolio: budgeted race stays certified" `Quick
      test_portfolio_race_budgeted;
    Alcotest.test_case "portfolio: supervisor cancel stops the run" `Quick
      test_portfolio_supervisor_cancel;
  ]
