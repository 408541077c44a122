(* Robustness: malformed-input corpora for both parsers, the deterministic
   fault-injection harness, and the graceful-degradation portfolio.

   The invariant under test throughout: a mapping request never crashes,
   and never returns nothing when a valid answer is obtainable — even
   with every exact solve forced to [Unknown]. *)

open Test_util
module Lit = Qxm_sat.Lit
module Solver = Qxm_sat.Solver
module Fault = Qxm_sat.Fault
module Dimacs = Qxm_sat.Dimacs
module Qasm = Qxm_circuit.Qasm
module Circuit = Qxm_circuit.Circuit
module Gate = Qxm_circuit.Gate
module Coupling = Qxm_arch.Coupling
module Devices = Qxm_arch.Devices
module Mapper = Qxm_exact.Mapper
module Portfolio = Qxm_exact.Portfolio
module Strategy = Qxm_exact.Strategy
module Certify = Qxm_exact.Certify
module Trace = Qxm_obs.Trace
module Examples = Qxm_benchmarks.Examples
module Suite = Qxm_benchmarks.Suite

(* -- malformed QASM ------------------------------------------------------ *)

let qasm_corpus =
  [
    ("truncated statement", "qreg q[2];\ncx q[0],", "expected");
    ("bad character", "qreg q[1];\nx q[0] @;\n", "unexpected character");
    ("unknown gate", "qreg q[1];\nfrobnicate q[0];\n", "not supported");
    ("index out of range", "qreg q[2];\ncx q[0],q[7];\n", "out of range");
    ("huge index", "qreg q[2];\nx q[123456789123];\n", "out of range");
    ("huge register", "qreg q[99999999];\n", "unreasonably large");
    ("unterminated string", "include \"qelib", "unterminated string");
    ("binary garbage", "\x01\x02\x03", "unexpected character");
    ("bad number", "qreg q[1];\nrx(1e) q[0];\n", "bad number");
    ("unterminated measure", "qreg q[1];\nmeasure q[0]", "unterminated");
  ]

let test_qasm_corpus () =
  List.iter
    (fun (name, source, fragment) ->
      match Qasm.parse_string source with
      | exception Qasm.Parse_error { line; message } ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: line positive" name)
            true (line >= 1);
          Alcotest.(check bool)
            (Printf.sprintf "%s: message mentions %S" name fragment)
            true
            (contains_substring message fragment)
      | exception e ->
          Alcotest.failf "%s: expected Parse_error, got %s" name
            (Printexc.to_string e)
      | _ -> Alcotest.failf "%s: expected a parse error" name)
    qasm_corpus

(* Deterministically corrupted versions of a well-formed program must
   either still parse or fail with a structured [Parse_error] — never
   any other exception. *)
let qasm_corruption_fuzz =
  let text = Qasm.to_string Examples.fig1a in
  qtest ~count:300 "corrupted QASM never escapes Parse_error"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      match Qasm.parse_string (Fault.corrupt ~seed text) with
      | _ -> true
      | exception Qasm.Parse_error { line; _ } -> line >= 1
      | exception _ -> false)

(* -- malformed DIMACS ---------------------------------------------------- *)

let dimacs_corpus =
  [
    ("bad token", "p cnf 2 1\n1 x 0\n", 2, "bad token");
    ("literal out of range", "p cnf 2 1\n3 0\n", 2, "exceeds");
    ("bad problem line", "p cnf a b\n1 0\n", 1, "bad problem line");
    ("duplicate problem line", "p cnf 1 1\np cnf 2 2\n1 0\n", 2, "duplicate");
    ("absurd var count", "p cnf 999999999 1\n1 0\n", 1, "unreasonable");
    ("float literal", "p cnf 2 1\n1.5 0\n", 2, "bad token");
    (* [abs min_int] is negative, so an [abs]-based bound let it through *)
    ("min_int literal", "p cnf 3 1\n1 -4611686018427387904 0\n", 2,
     "exceeds");
    (* no problem line: the header's variable cap still bounds a literal,
       or [load] would allocate 10^12 variables *)
    ("huge literal, no problem line", "c none\n1000000000000 0\n", 2,
     "exceeds");
  ]

let test_dimacs_corpus () =
  List.iter
    (fun (name, source, expected_line, fragment) ->
      match Dimacs.parse_string source with
      | exception Dimacs.Parse_error { line; message } ->
          Alcotest.(check int)
            (Printf.sprintf "%s: line" name)
            expected_line line;
          Alcotest.(check bool)
            (Printf.sprintf "%s: message mentions %S" name fragment)
            true
            (contains_substring message fragment)
      | exception e ->
          Alcotest.failf "%s: expected Parse_error, got %s" name
            (Printexc.to_string e)
      | _ -> Alcotest.failf "%s: expected a parse error" name)
    dimacs_corpus

let test_dimacs_still_parses () =
  let p =
    Dimacs.parse_string "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n%\n"
  in
  Alcotest.(check int) "vars" 3 p.num_vars;
  Alcotest.(check int) "clauses" 2 (List.length p.clauses)

let dimacs_corruption_fuzz =
  let text = "c fuzz seed\np cnf 4 3\n1 -2 0\n2 3 -4 0\n-1 4 0\n" in
  qtest ~count:300 "corrupted DIMACS never escapes Parse_error"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      match Dimacs.parse_string (Fault.corrupt ~seed text) with
      | _ -> true
      | exception Dimacs.Parse_error { line; _ } -> line >= 1
      | exception _ -> false)

(* -- the fault-injection harness itself ---------------------------------- *)

let trivially_sat () =
  let s = solver_with 1 in
  Solver.add_clause s [ Lit.pos 0 ];
  s

let test_fault_forces_unknown () =
  let s = trivially_sat () in
  Fault.with_schedule Fault.Always_unknown (fun () ->
      Alcotest.(check bool) "forced" true (Solver.solve s = Solver.Unknown);
      Alcotest.(check int) "seen" 1 (Fault.solves_seen ());
      Alcotest.(check int) "injected" 1 (Fault.injected ()));
  Alcotest.(check bool) "disarmed" true (Solver.solve s = Solver.Sat)

let test_fault_after_solves () =
  let s = trivially_sat () in
  Fault.with_schedule (Fault.After_solves 2) (fun () ->
      Alcotest.(check bool) "1st passes" true (Solver.solve s = Solver.Sat);
      Alcotest.(check bool) "2nd passes" true (Solver.solve s = Solver.Sat);
      Alcotest.(check bool) "3rd forced" true
        (Solver.solve s = Solver.Unknown))

let test_fault_truncate_conflicts () =
  (* UNSAT instance that needs at least one conflict: with a zero-conflict
     budget the solver must give up instead of answering. *)
  let s = solver_with 2 in
  List.iter
    (Solver.add_clause s)
    [
      [ Lit.pos 0; Lit.pos 1 ];
      [ Lit.pos 0; Lit.neg_of 1 ];
      [ Lit.neg_of 0; Lit.pos 1 ];
      [ Lit.neg_of 0; Lit.neg_of 1 ];
    ];
  Fault.with_schedule (Fault.Truncate_conflicts 0) (fun () ->
      Alcotest.(check bool) "starved" true
        (Solver.solve s = Solver.Unknown));
  Alcotest.(check bool) "unsat once disarmed" true
    (Solver.solve s = Solver.Unsat)

let test_fault_seeded_deterministic () =
  let pattern () =
    Fault.with_schedule
      (Fault.Seeded { seed = 7; unknown_prob = 0.5 })
      (fun () ->
        List.init 32 (fun _ ->
            let s = trivially_sat () in
            Solver.solve s = Solver.Unknown))
  in
  Alcotest.(check (list bool)) "same seed, same faults" (pattern ())
    (pattern ());
  Alcotest.(check bool) "some pass and some fault" true
    (let p = pattern () in
     List.mem true p && List.mem false p)

(* The --inject grammar both CLIs parse through Fault.of_string. *)
let test_fault_of_string () =
  List.iter
    (fun (spec, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "%S accepted" spec)
        true
        (Fault.of_string spec = Ok expected))
    [
      ("unknown", Fault.Always_unknown);
      ("after=0", Fault.After_solves 0);
      ("after=3", Fault.After_solves 3);
      ("truncate=100", Fault.Truncate_conflicts 100);
      ("seed=7:0.5", Fault.Seeded { seed = 7; unknown_prob = 0.5 });
      ("seed=-2:0", Fault.Seeded { seed = -2; unknown_prob = 0.0 });
      ("seed=1:1", Fault.Seeded { seed = 1; unknown_prob = 1.0 });
    ];
  List.iter
    (fun (spec, fragment) ->
      match Fault.of_string spec with
      | Ok _ -> Alcotest.failf "%S should be rejected" spec
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%S: message mentions %S (got %S)" spec fragment
               msg)
            true
            (contains_substring msg fragment))
    [
      ("after=-1", "bad solve count");
      ("after=many", "bad solve count");
      ("truncate=", "bad conflict count");
      ("seed=7", "seed=<int>:<prob>");
      ("seed=7:1.5", "bad seed spec");
      ("seed=7:-0.1", "bad seed spec");
      ("seed=7:nan", "bad seed spec");
      ("seed=x:0.5", "bad seed spec");
      ("sometimes", "unknown fault spec");
      ("unknown=1", "unknown fault spec");
    ]

(* -- exact mapper under injected faults ---------------------------------- *)

let test_mapper_all_unknown_times_out () =
  Fault.with_schedule Fault.Always_unknown (fun () ->
      match Mapper.run ~arch:Devices.qx4 Examples.fig1a with
      | Error (Mapper.Timeout _) -> ()
      | Ok _ -> Alcotest.fail "solves were forced Unknown, yet Ok?"
      | Error e -> Alcotest.failf "expected Timeout, got %a" Mapper.pp_failure e)

let test_mapper_incumbent_under_budget_cut () =
  (* the first solve of the first subset finds a model; everything after
     is cut — the mapper must return that incumbent, not Timeout *)
  Fault.with_schedule (Fault.After_solves 1) (fun () ->
      match Mapper.run ~arch:Devices.qx4 Examples.fig1a with
      | Ok r ->
          Alcotest.(check bool) "not optimal" false r.optimal;
          Alcotest.(check (option bool)) "verified" (Some true) r.verified;
          Alcotest.(check bool) "objective bounds f_cost" true
            (r.f_cost <= r.objective_cost)
      | Error e -> Alcotest.failf "expected incumbent, got %a" Mapper.pp_failure e)

let test_mapper_zero_timeout_times_out_cleanly () =
  let options = { Mapper.default with timeout = Some 0.0 } in
  match Mapper.run ~options ~arch:Devices.qx4 Examples.fig1a with
  | Error (Mapper.Timeout _) -> ()
  | Ok r ->
      (* a fast machine may still land a model inside the reserve *)
      Alcotest.(check bool) "then it must be a real model" true
        (r.f_cost >= 0)
  | Error e -> Alcotest.failf "unexpected failure %a" Mapper.pp_failure e

(* -- certification gate -------------------------------------------------- *)

let test_compliance_rejects () =
  let reject name circuit fragment =
    match Certify.compliance ~arch:Devices.qx4 circuit with
    | Ok () -> Alcotest.failf "%s: expected rejection" name
    | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: message mentions %S" name fragment)
          true
          (contains_substring msg fragment)
  in
  reject "undischarged swap" (Circuit.create 5 [ Gate.Swap (0, 1) ]) "SWAP";
  reject "uncoupled cnot" (Circuit.create 5 [ Gate.Cnot (0, 4) ]) "coupling";
  reject "too many wires"
    (Circuit.create 7 [ Gate.Single (Gate.H, 6) ])
    "device has";
  Alcotest.(check bool) "compliant circuit passes" true
    (Certify.compliance ~arch:Devices.qx4
       (Circuit.create 5 [ Gate.Cnot (1, 0); Gate.Single (Gate.H, 4) ])
    = Ok ())

(* -- portfolio ----------------------------------------------------------- *)

let test_portfolio_honest_optimal () =
  match Portfolio.run ~arch:Devices.qx4 Examples.fig1a with
  | Ok r ->
      Alcotest.(check bool) "provenance exact-optimal" true
        (r.provenance = Portfolio.Exact_optimal);
      Alcotest.(check bool) "optimal flag" true r.optimal;
      Alcotest.(check int) "F = 4 (Ex. 7)" 4 r.f_cost;
      Alcotest.(check (option bool)) "verified" (Some true) r.verified;
      Alcotest.(check bool) "stages recorded" true (r.stages <> [])
  | Error e -> Alcotest.failf "portfolio failed: %a" Portfolio.pp_failure e

let test_portfolio_degrades_to_heuristic () =
  Fault.with_schedule Fault.Always_unknown (fun () ->
      match Portfolio.run ~arch:Devices.qx4 Examples.fig1a with
      | Ok r ->
          (match r.provenance with
          | Portfolio.Heuristic -> ()
          | p ->
              Alcotest.failf "expected heuristic provenance, got %s"
                (Portfolio.provenance_string p));
          Alcotest.(check bool) "not claiming optimality" false r.optimal;
          Alcotest.(check (option bool)) "verified" (Some true) r.verified;
          Alcotest.(check bool) "compliant" true
            (Certify.compliance ~arch:Devices.qx4 r.elementary = Ok ())
      | Error e -> Alcotest.failf "portfolio failed: %a" Portfolio.pp_failure e)

let test_portfolio_incumbent_path () =
  Fault.with_schedule (Fault.After_solves 2) (fun () ->
      match Portfolio.run ~arch:Devices.qx4 Examples.fig1a with
      | Ok r ->
          Alcotest.(check bool) "degraded provenance" true
            (match r.provenance with
            | Portfolio.Exact_incumbent | Portfolio.Heuristic -> true
            | Portfolio.Exact_optimal -> false);
          Alcotest.(check bool) "not claiming optimality" false r.optimal;
          Alcotest.(check (option bool)) "verified" (Some true) r.verified
      | Error e -> Alcotest.failf "portfolio failed: %a" Portfolio.pp_failure e)

(* A run cancelled before its first stage certifies nothing: it ends
   [Exhausted], and the telemetry still says why. *)
let test_portfolio_exhausted_when_cancelled () =
  let cancel = Qxm_par.Cancel.create () in
  Qxm_par.Cancel.cancel cancel;
  match Portfolio.run ~cancel ~arch:Devices.qx4 Examples.fig1a with
  | Error (Portfolio.Exhausted stages) ->
      Alcotest.(check (list (pair string string)))
        "telemetry survives"
        [ ("exact", "cancelled"); ("sabre", "skipped: cancelled") ]
        (List.map (fun (s : Portfolio.stage) -> (s.stage, s.outcome)) stages)
  | Ok _ -> Alcotest.fail "a cancelled run cannot have produced a result"
  | Error e ->
      Alcotest.failf "expected Exhausted, got %a" Portfolio.pp_failure e

(* A device with no connected set of n physical qubits is a typed
   error from both entry points, before any stage or encoding runs. *)
let test_unroutable_device_rejected () =
  Trace.reset ();
  Trace.enable ();
  Fun.protect ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
  @@ fun () ->
  (match Portfolio.run ~arch:unroutable_device unroutable_circuit with
  | Error (Portfolio.Disconnected { logical = 4; largest = 2 } as e) ->
      Alcotest.(check string) "one-line reason"
        "device has no connected set of 4 qubits (largest connected part: 2)"
        (Format.asprintf "%a" Portfolio.pp_failure e)
  | Ok _ -> Alcotest.fail "nothing could have produced a result"
  | Error e ->
      Alcotest.failf "expected Disconnected, got %a" Portfolio.pp_failure e);
  (match Mapper.run ~arch:unroutable_device unroutable_circuit with
  | Error (Mapper.Disconnected { logical = 4; largest = 2 }) -> ()
  | Ok _ -> Alcotest.fail "nothing could have produced a result"
  | Error e ->
      Alcotest.failf "expected Disconnected, got %a" Mapper.pp_failure e);
  Alcotest.(check (list string)) "no span recorded: no stage ran" []
    (List.filter_map
       (fun (e : Trace.event) -> if e.ph = `B then Some e.name else None)
       (Trace.events ()))

(* A disconnected device that can still host the circuit: without
   subsets the mapper would encode the whole device, which has no
   encoding, so it solves over the connected subsets anyway and both
   settings land on the same optimum. *)
let test_disconnected_device_without_subsets () =
  let device = Coupling.create ~num_qubits:5 [ (0, 1); (1, 2); (3, 4) ] in
  let circuit = Circuit.create 2 [ Gate.Cnot (0, 1); Gate.Cnot (1, 0) ] in
  let map use_subsets =
    match
      Mapper.run
        ~options:{ Mapper.default with use_subsets }
        ~arch:device circuit
    with
    | Ok r -> r
    | Error e ->
        Alcotest.failf "use_subsets = %b: %a" use_subsets Mapper.pp_failure
          e
  in
  let subsets = map true and whole = map false in
  Alcotest.(check int) "F with subsets" 4 subsets.f_cost;
  Alcotest.(check int) "same F without subsets" subsets.f_cost whole.f_cost;
  Alcotest.(check bool) "optimal" true whole.optimal;
  Alcotest.(check (option bool)) "verified" (Some true) whole.verified;
  let options =
    {
      Portfolio.default with
      exact = { Mapper.default with use_subsets = false };
    }
  in
  match Portfolio.run ~options ~arch:device circuit with
  | Ok r ->
      Alcotest.(check string) "provenance" "exact-optimal"
        (Portfolio.provenance_string r.provenance);
      Alcotest.(check int) "portfolio F" subsets.f_cost r.f_cost
  | Error e -> Alcotest.failf "portfolio failed: %a" Portfolio.pp_failure e

let test_portfolio_too_many_logical () =
  match Portfolio.run ~arch:(Devices.line 2) (Circuit.empty 3) with
  | Error (Portfolio.Too_many_logical { logical = 3; physical = 2 }) -> ()
  | _ -> Alcotest.fail "expected Too_many_logical"

(* On every hard row the DP seed makes the first model of the first rung
   the optimum, so a seeded portfolio runs only its ladder's last rung
   and still returns F*; without the seed the whole ladder runs.  The
   options are the ones the benchmark's anytime workload maps these rows
   with. *)
let test_portfolio_seeded_runs_last_rung () =
  let options warm_start =
    {
      Portfolio.default with
      exact =
        { Mapper.default with strategy = Strategy.Minimal; jobs = 1; warm_start };
      ladder = [ 500; 2000 ];
      jobs = 1;
    }
  in
  let run name warm_start =
    let e = Option.get (Suite.by_name name) in
    let options = options warm_start in
    Alcotest.(check bool)
      (Printf.sprintf "%s: seeded iff warm_start = %b" name warm_start)
      warm_start
      (Mapper.seeded options.exact ~arch:Devices.qx4 e.circuit);
    match Portfolio.run ~options ~arch:Devices.qx4 e.circuit with
    | Ok r -> r
    | Error f ->
        Alcotest.failf "%s: portfolio failed: %a" name Portfolio.pp_failure f
  in
  let stage_names (r : Portfolio.report) =
    List.map (fun (s : Portfolio.stage) -> s.stage) r.stages
  in
  List.iter
    (fun (name, f_star) ->
      let r = run name true in
      Alcotest.(check (list string))
        (name ^ ": the last rung, then SABRE")
        [ "exact:2000"; "sabre" ] (stage_names r);
      Alcotest.(check int) (name ^ ": F is the DP's F*") f_star r.f_cost;
      Alcotest.(check string)
        (name ^ ": the exact lane's answer")
        "exact-incumbent"
        (Portfolio.provenance_string r.provenance);
      let cold = run name false in
      Alcotest.(check (list string))
        (name ^ ": unseeded, both rungs run")
        [ "exact:500"; "exact:2000" ]
        (List.filter
           (String.starts_with ~prefix:"exact:")
           (stage_names cold)))
    hard_rows

(* The acceptance sweep: with every exact solve forced to Unknown, the
   portfolio must return a certified heuristic-provenance report for
   every benchmark of the paper's Table 1 — zero crashes, zero timeouts. *)
let test_portfolio_degrades_on_full_suite () =
  Fault.with_schedule Fault.Always_unknown (fun () ->
      List.iter
        (fun (e : Suite.entry) ->
          let options =
            {
              Portfolio.default with
              (* the exact stage is faulted anyway: one cheap rung keeps
                 the sweep fast while still exercising the budget path *)
              ladder = [ 1000 ];
            }
          in
          match Portfolio.run ~options ~arch:Devices.qx4 e.circuit with
          | Ok r ->
              (match r.provenance with
              | Portfolio.Heuristic -> ()
              | p ->
                  Alcotest.failf "%s: expected heuristic provenance, got %s"
                    e.name
                    (Portfolio.provenance_string p));
              if r.verified = Some false then
                Alcotest.failf "%s: equivalence check failed" e.name;
              (match Certify.compliance ~arch:Devices.qx4 r.elementary with
              | Ok () -> ()
              | Error msg -> Alcotest.failf "%s: %s" e.name msg);
              Alcotest.(check bool)
                (e.name ^ ": telemetry present")
                true (r.stages <> [])
          | Error f ->
              Alcotest.failf "%s: portfolio failed: %a" e.name
                Portfolio.pp_failure f)
        (Suite.all ()))

(* -- sanitized Table-1 sweep --------------------------------------------- *)

(* Real mapping workloads with the solver invariant checker armed: every
   solve audits the trail, watch lists and branching heap.  A violation
   raises Invariant_violation, which would fail the test; Ok and Timeout
   are both acceptable answers under the tight budget. *)
let test_sanitized_mapping_sweep () =
  Solver.set_sanitize_all true;
  Fun.protect
    ~finally:(fun () -> Solver.set_sanitize_all false)
    (fun () ->
      List.iter
        (fun (e : Suite.entry) ->
          let options = { Mapper.default with timeout = Some 1.0 } in
          match Mapper.run ~options ~arch:Devices.qx4 e.circuit with
          | Ok _ | Error (Mapper.Timeout _) -> ()
          | Error f ->
              Alcotest.failf "%s: mapping failed: %a" e.name
                Mapper.pp_failure f
          | exception Solver.Invariant_violation msg ->
              Alcotest.failf "%s: solver invariant broken: %s" e.name msg)
        (Suite.small ()))

let suite =
  [
    ("malformed QASM corpus", `Quick, test_qasm_corpus);
    qasm_corruption_fuzz;
    ("malformed DIMACS corpus", `Quick, test_dimacs_corpus);
    ("well-formed DIMACS still parses", `Quick, test_dimacs_still_parses);
    dimacs_corruption_fuzz;
    ("fault: always unknown", `Quick, test_fault_forces_unknown);
    ("fault: after N solves", `Quick, test_fault_after_solves);
    ("fault: truncated conflicts", `Quick, test_fault_truncate_conflicts);
    ("fault: seeded schedule deterministic", `Quick,
     test_fault_seeded_deterministic);
    ("fault: --inject grammar", `Quick, test_fault_of_string);
    ("mapper: all-unknown times out", `Quick,
     test_mapper_all_unknown_times_out);
    ("mapper: budget cut yields incumbent", `Quick,
     test_mapper_incumbent_under_budget_cut);
    ("mapper: zero timeout fails cleanly", `Quick,
     test_mapper_zero_timeout_times_out_cleanly);
    ("certify: compliance gate", `Quick, test_compliance_rejects);
    ("portfolio: honest optimal provenance", `Quick,
     test_portfolio_honest_optimal);
    ("portfolio: degrades to heuristic", `Quick,
     test_portfolio_degrades_to_heuristic);
    ("portfolio: incumbent path", `Quick, test_portfolio_incumbent_path);
    ("portfolio: exhausted telemetry", `Quick,
     test_portfolio_exhausted_when_cancelled);
    ("portfolio: unroutable device rejected", `Quick,
     test_unroutable_device_rejected);
    ("mapper: disconnected device without subsets", `Quick,
     test_disconnected_device_without_subsets);
    ("portfolio: too many logical", `Quick, test_portfolio_too_many_logical);
    ("portfolio: a DP seed leaves the last rung", `Quick,
     test_portfolio_seeded_runs_last_rung);
    ("portfolio: full-suite degradation sweep", `Slow,
     test_portfolio_degrades_on_full_suite);
    ("sanitized mapping sweep", `Quick, test_sanitized_mapping_sweep);
  ]
