(* Tests for the lint layer: diagnostics rendering, the CNF/encoding
   analyzer, the circuit linter and the solver sanitizer.

   The heart of this suite is mutation testing: for every analyzer we
   seed a defect — a doctored encoder, a malformed netlist, a corrupted
   solver structure — and require the documented diagnostic code to fire,
   while the clean counterpart stays free of error-severity findings. *)

open Test_util
module Lit = Qxm_sat.Lit
module Solver = Qxm_sat.Solver
module Cnf = Qxm_encode.Cnf
module Amo = Qxm_encode.Amo
module Encoding = Qxm_exact.Encoding
module Devices = Qxm_arch.Devices
module Gate = Qxm_circuit.Gate
module Circuit = Qxm_circuit.Circuit
module Qasm = Qxm_circuit.Qasm
module Diagnostic = Qxm_lint.Diagnostic
module Cnf_lint = Qxm_lint.Cnf_lint
module Circuit_lint = Qxm_lint.Circuit_lint
module Solver_lint = Qxm_lint.Solver_lint

let codes ds = List.map (fun (d : Diagnostic.t) -> d.code) ds
let has_code code ds = List.mem code (codes ds)

let check_no_errors name ds =
  Alcotest.(check (list string))
    name []
    (List.map Diagnostic.to_string (Diagnostic.errors ds))

(* -- diagnostics core -------------------------------------------------- *)

let test_render_text () =
  let d =
    Diagnostic.make
      ~loc:{ Diagnostic.file = "a.qasm"; line = 3 }
      ~code:"QL-Q001" ~severity:Diagnostic.Error "identical operands"
  in
  Alcotest.(check string)
    "with location" "a.qasm:3: error QL-Q001: identical operands"
    (Diagnostic.to_string d);
  let d2 =
    Diagnostic.make ~code:"QL-E006" ~severity:Diagnostic.Warning "floating"
  in
  Alcotest.(check string)
    "without location" "warning QL-E006: floating" (Diagnostic.to_string d2)

let test_render_json () =
  let d =
    Diagnostic.make
      ~loc:{ Diagnostic.file = "dir/b.qasm"; line = 7 }
      ~code:"QL-Q008" ~severity:Diagnostic.Error "bad \"token\"\n"
  in
  let j = Diagnostic.to_json d in
  Alcotest.(check bool) "escapes quotes" true
    (contains_substring j "bad \\\"token\\\"\\n");
  Alcotest.(check bool) "has file" true
    (contains_substring j "\"file\":\"dir/b.qasm\"");
  Alcotest.(check bool) "has line" true (contains_substring j "\"line\":7");
  Alcotest.(check string) "empty list" "[]" (Diagnostic.list_to_json []);
  Alcotest.(check bool) "list wraps objects" true
    (contains_substring (Diagnostic.list_to_json [ d ]) "[\n{");
  Alcotest.(check int) "severity ordering" 0
    (Diagnostic.by_severity d d);
  Alcotest.(check bool) "errors filter" true
    (Diagnostic.errors [ d ] = [ d ])

(* -- CNF stream diagnostics -------------------------------------------- *)

let test_cnf_stream_diagnostics () =
  let s = Solver.create () in
  let cnf = Cnf.create s in
  let lint = Cnf_lint.attach cnf in
  let a = Cnf.fresh cnf and b = Cnf.fresh cnf in
  let _floating = Cnf.fresh cnf in
  Cnf.add cnf [ a; a; b ];
  (* duplicate literal *)
  Cnf.add cnf [ a; Lit.negate a ];
  (* tautology *)
  Cnf.add cnf [ a; b ];
  (* repeats the normalized first clause *)
  Cnf.add cnf [ b ];
  Cnf.add cnf [ Lit.negate b ];
  (* contradictory units *)
  Cnf.add cnf [];
  (* stray empty clause *)
  Cnf.add_unsat cnf ~reason:"on purpose";
  let ds = Cnf_lint.report lint in
  List.iter
    (fun code ->
      Alcotest.(check bool) (code ^ " reported") true (has_code code ds))
    [
      "QL-E001"; "QL-E002"; "QL-E003"; "QL-E004"; "QL-E005"; "QL-E006";
      "QL-E009";
    ];
  (* report is non-consuming and repeatable *)
  Alcotest.(check int) "stable report" (List.length ds)
    (List.length (Cnf_lint.report lint))

(* -- encoder shape mutations ------------------------------------------- *)

(* Mutant 1: Sinz sequential counter that forgets the exclusion clause
   (¬l ∨ ¬s) — the classic AMO bug that still satisfies every positive
   test.  2(n-1) clauses instead of 3(n-1). *)
let broken_sequential cnf lits =
  Cnf.in_scope cnf ~kind:"amo-sequential" ~arity:(List.length lits)
    (fun () ->
      match lits with
      | [] | [ _ ] -> ()
      | first :: rest ->
          let s = ref first in
          List.iter
            (fun l ->
              let s' = Cnf.fresh cnf in
              Cnf.add cnf [ Lit.negate !s; s' ];
              Cnf.add cnf [ Lit.negate l; s' ];
              s := s')
            rest)

(* Mutant 2: "pairwise" that only excludes adjacent pairs — a chain, not
   a clique.  n-1 clauses instead of n(n-1)/2. *)
let broken_pairwise cnf lits =
  Cnf.in_scope cnf ~kind:"amo-pairwise" ~arity:(List.length lits) (fun () ->
      let rec go = function
        | a :: (b :: _ as rest) ->
            Cnf.add cnf [ Lit.negate a; Lit.negate b ];
            go rest
        | _ -> ()
      in
      go lits)

let with_lint f =
  let s = Solver.create () in
  let cnf = Cnf.create s in
  let lint = Cnf_lint.attach cnf in
  f cnf;
  Cnf_lint.report lint

let test_mutant_sequential_detected () =
  let ds =
    with_lint (fun cnf ->
        broken_sequential cnf (List.init 5 (fun _ -> Cnf.fresh cnf)))
  in
  Alcotest.(check bool) "QL-E007 fires" true (has_code "QL-E007" ds)

let test_mutant_pairwise_detected () =
  let ds =
    with_lint (fun cnf ->
        broken_pairwise cnf (List.init 4 (fun _ -> Cnf.fresh cnf)))
  in
  Alcotest.(check bool) "QL-E007 fires" true (has_code "QL-E007" ds)

(* The clean encoders must pass their own shape checks at every size,
   including the degenerate ones. *)
let clean_amo_shapes =
  qtest ~count:80 "clean AMO/EO encoders pass shape checks"
    QCheck2.Gen.(
      pair (int_range 0 12) (oneofl [ Amo.Pairwise; Amo.Sequential; Amo.Commander ]))
    (fun (n, encoding) ->
      let ds =
        with_lint (fun cnf ->
            Amo.exactly_one ~encoding cnf
              (List.init n (fun _ -> Cnf.fresh cnf)))
      in
      Diagnostic.errors ds = [])

(* The full mapping encoding, observed end to end, must be clean for
   every AMO regime. *)
let test_clean_full_encoding () =
  List.iter
    (fun encoding ->
      let s = Solver.create () in
      let cnf = Cnf.create s in
      let lint = Cnf_lint.attach cnf in
      let instance =
        {
          Encoding.arch = Devices.qx4;
          num_logical = 3;
          cnots = [| (0, 1); (1, 2); (0, 2) |];
          spots = [ 1; 2 ];
        }
      in
      ignore (Encoding.build ~amo:encoding cnf instance);
      check_no_errors "full encoding has no error findings"
        (Cnf_lint.report lint))
    [ Amo.Pairwise; Amo.Sequential; Amo.Commander ]

(* -- circuit linter ---------------------------------------------------- *)

let test_circuit_mutations () =
  (* seeded netlist defects, fed as raw gate lists so nothing upstream
     can reject them first *)
  let ds =
    Circuit_lint.check_gates ~num_qubits:3
      [
        Gate.Cnot (2, 2);
        (* identical operands *)
        Gate.Cnot (0, 9);
        (* out of range *)
        Gate.Barrier [ 1 ];
        (* degenerate barrier *)
        Gate.Single (Gate.H, 0);
      ]
  in
  Alcotest.(check bool) "QL-Q001" true (has_code "QL-Q001" ds);
  Alcotest.(check bool) "QL-Q002" true (has_code "QL-Q002" ds);
  Alcotest.(check bool) "QL-Q007" true (has_code "QL-Q007" ds);
  (* qubit 2 only appears in defective gates, but it is touched; none of
     0..2 is unused here *)
  let ds2 = Circuit_lint.check_gates ~num_qubits:4 [ Gate.Cnot (0, 1) ] in
  Alcotest.(check bool) "QL-Q003 for idle qubits" true
    (has_code "QL-Q003" ds2)

let test_gate_after_measurement () =
  let src =
    "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\nmeasure q[0] -> \
     c[0];\ncx q[0],q[1];\n"
  in
  let ann = Qasm.parse_annotated src in
  let ds = Circuit_lint.check_annotated ~file:"m.qasm" ann in
  Alcotest.(check bool) "QL-Q004" true (has_code "QL-Q004" ds);
  (* the finding carries the gate's source line *)
  Alcotest.(check bool) "line recorded" true
    (List.exists
       (fun (d : Diagnostic.t) ->
         d.code = "QL-Q004" && d.loc = Some { Diagnostic.file = "m.qasm"; line = 6 })
       ds)

let test_clean_annotated () =
  let src =
    "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\n\
     measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
  in
  let ds = Circuit_lint.check_annotated (Qasm.parse_annotated src) in
  Alcotest.(check (list string)) "clean program" []
    (List.map Diagnostic.to_string ds)

let test_mapped_against_coupling () =
  (* qx4 allows cx 1,0 — so 0,1 is direction-reversed and 0,4 uncoupled *)
  let mapped =
    Circuit.create 5 [ Gate.Cnot (1, 0); Gate.Cnot (0, 1); Gate.Cnot (0, 4) ]
  in
  let ds = Circuit_lint.check_mapped ~coupling:Devices.qx4 mapped in
  let q6 =
    List.filter (fun (d : Diagnostic.t) -> d.code = "QL-Q006") ds
  in
  Alcotest.(check int) "two QL-Q006 findings" 2 (List.length q6);
  Alcotest.(check int) "one is an error (uncoupled)" 1
    (List.length (Diagnostic.errors q6));
  let swapped = Circuit.create 5 [ Gate.Swap (0, 4) ] in
  Alcotest.(check bool) "QL-Q005 for uncoupled swap" true
    (has_code "QL-Q005"
       (Circuit_lint.check_mapped ~coupling:Devices.qx4 swapped))

(* -- solver sanitizer --------------------------------------------------- *)

let solver_with_clauses () =
  let s = solver_with 4 in
  Solver.add_clause s [ Lit.pos 0; Lit.pos 1 ];
  Solver.add_clause s [ Lit.neg_of 1; Lit.pos 2 ];
  Solver.add_clause s [ Lit.neg_of 2; Lit.pos 3; Lit.pos 0 ];
  s

let test_solver_clean () =
  let s = solver_with_clauses () in
  Alcotest.(check (list string)) "clean before solving" []
    (List.map Diagnostic.to_string (Solver_lint.check s));
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check (list string)) "clean after solving" []
    (List.map Diagnostic.to_string (Solver_lint.check s))

let corruption_cases =
  [
    ("watch", Solver.Testing.corrupt_watch, "QL-S001");
    ("trail", Solver.Testing.corrupt_trail, "QL-S002");
    ("heap", Solver.Testing.corrupt_heap, "QL-S003");
    ("arena", Solver.Testing.corrupt_arena, "QL-S004");
  ]

let test_corruptions_detected () =
  List.iter
    (fun (name, corrupt, code) ->
      let s = solver_with_clauses () in
      Alcotest.(check bool) (name ^ " corrupted") true (corrupt s);
      let ds = Solver_lint.check s in
      Alcotest.(check bool)
        (Printf.sprintf "%s detected as %s" name code)
        true (has_code code ds);
      Alcotest.(check bool) (name ^ " is error severity") true
        (Diagnostic.errors ds <> []))
    corruption_cases

let test_sanitized_solve_raises () =
  List.iter
    (fun (name, corrupt, _) ->
      let s = solver_with_clauses () in
      Alcotest.(check bool) (name ^ " corrupted") true (corrupt s);
      Solver.set_sanitize s true;
      match Solver.solve s with
      | exception Solver.Invariant_violation _ -> ()
      | _ ->
          Alcotest.failf "%s: sanitized solve accepted a corrupted solver"
            name)
    corruption_cases

let test_unsanitized_solver_does_not_check () =
  (* without the flag, solve performs no audit — corruption passes
     through silently (that is the point of making it opt-in) *)
  let s = solver_with_clauses () in
  ignore (Solver.Testing.corrupt_heap s);
  match Solver.solve s with
  | Solver.Sat | Solver.Unsat | Solver.Unknown -> ()

let suite =
  [
    ("render: text", `Quick, test_render_text);
    ("render: json", `Quick, test_render_json);
    ("cnf: stream diagnostics", `Quick, test_cnf_stream_diagnostics);
    ("cnf: mutant sequential detected", `Quick,
     test_mutant_sequential_detected);
    ("cnf: mutant pairwise detected", `Quick, test_mutant_pairwise_detected);
    clean_amo_shapes;
    ("cnf: full encoding clean", `Quick, test_clean_full_encoding);
    ("circuit: seeded defects detected", `Quick, test_circuit_mutations);
    ("circuit: gate after measurement", `Quick, test_gate_after_measurement);
    ("circuit: clean annotated program", `Quick, test_clean_annotated);
    ("circuit: mapped vs coupling", `Quick, test_mapped_against_coupling);
    ("solver: clean invariants", `Quick, test_solver_clean);
    ("solver: corruptions detected", `Quick, test_corruptions_detected);
    ("solver: sanitized solve raises", `Quick, test_sanitized_solve_raises);
    ("solver: unsanitized solve does not check", `Quick,
     test_unsanitized_solver_does_not_check);
  ]
