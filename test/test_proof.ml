(* Tests for DRUP proof logging and the RUP checker.  Optimality
   certificates are tested end to end in test_audit. *)

open Test_util
module Lit = Qxm_sat.Lit
module Solver = Qxm_sat.Solver
module Proof = Qxm_sat.Proof

let php_clauses n =
  (* n+1 pigeons, n holes *)
  let v p h = Lit.pos ((p * n) + h) in
  let at_least = List.init (n + 1) (fun p -> List.init n (fun h -> v p h)) in
  let at_most =
    List.concat
      (List.init n (fun h ->
           List.concat
             (List.init (n + 1) (fun p1 ->
                  List.filter_map
                    (fun p2 ->
                      if p2 > p1 then
                        Some [ Lit.negate (v p1 h); Lit.negate (v p2 h) ]
                      else None)
                    (List.init (n + 1) Fun.id)))))
  in
  ((n + 1) * n, at_least @ at_most)

let solve_logged nvars clauses =
  let s = Solver.create () in
  Solver.enable_proof s;
  for _ = 1 to nvars do
    ignore (Solver.new_var s)
  done;
  List.iter (Solver.add_clause s) clauses;
  (Solver.solve s, s)

let test_php_proof_checks n () =
  let nvars, clauses = php_clauses n in
  let result, s = solve_logged nvars clauses in
  Alcotest.(check bool) "unsat" true (result = Solver.Unsat);
  match Solver.proof s with
  | None -> Alcotest.fail "no proof"
  | Some proof ->
      Alcotest.(check bool) "trace nonempty" true (proof.steps <> []);
      (match Proof.check proof with
      | Proof.Valid -> ()
      | v -> Alcotest.failf "proof rejected: %a" Proof.pp_verdict v)

let test_trivial_unsat_proof () =
  let result, s =
    solve_logged 1 [ [ Lit.pos 0 ]; [ Lit.neg_of 0 ] ]
  in
  Alcotest.(check bool) "unsat" true (result = Solver.Unsat);
  match Solver.proof s with
  | Some proof ->
      Alcotest.(check bool) "valid" true (Proof.check proof = Proof.Valid)
  | None -> Alcotest.fail "no proof"

let test_sat_has_no_empty_clause () =
  let result, s = solve_logged 2 [ [ Lit.pos 0; Lit.pos 1 ] ] in
  Alcotest.(check bool) "sat" true (result = Solver.Sat);
  match Solver.proof s with
  | Some proof -> (
      (* the trace must NOT certify unsatisfiability *)
      match Proof.check proof with
      | Proof.Valid -> Alcotest.fail "bogus certificate"
      | Proof.Invalid _ -> ())
  | None -> Alcotest.fail "logging was enabled"

let test_forged_proof_rejected () =
  (* a clause that is not RUP must be caught *)
  let proof =
    {
      Proof.inputs = [ [| Lit.pos 0; Lit.pos 1 |] ];
      steps = [ Proof.Learn [| Lit.pos 0 |]; Proof.Learn [||] ];
    }
  in
  match Proof.check proof with
  | Proof.Invalid { step_index = 0; _ } -> ()
  | v -> Alcotest.failf "expected rejection, got %a" Proof.pp_verdict v

(* -- deletion steps ------------------------------------------------------ *)

(* x→y and z→x, satisfiable with no top-level units, so nothing
   propagates (or conflicts) when the inputs are loaded.  ¬z∨y is RUP
   through both implications — but only while x→y is live. *)
let deletable_inputs =
  [ [| Lit.neg_of 0; Lit.pos 1 |]; [| Lit.neg_of 2; Lit.pos 0 |] ]

let chained_learn = [| Lit.neg_of 2; Lit.pos 1 |]

let test_delete_removes_clause () =
  (* while x→y is live the Learn is accepted (the trace then merely
     fails to conclude)... *)
  let live =
    { Proof.inputs = deletable_inputs; steps = [ Proof.Learn chained_learn ] }
  in
  (match Proof.check live with
  | Proof.Invalid { step_index = 1; reason = "proof does not derive []" } -> ()
  | v -> Alcotest.failf "learn not accepted while live: %a" Proof.pp_verdict v);
  (* ...but deleting x→y first must make the very same Learn non-RUP *)
  let deleted =
    {
      Proof.inputs = deletable_inputs;
      steps =
        [
          Proof.Delete [| Lit.neg_of 0; Lit.pos 1 |];
          Proof.Learn chained_learn;
        ];
    }
  in
  match Proof.check deleted with
  | Proof.Invalid { step_index = 1; reason = "clause is not RUP" } -> ()
  | v -> Alcotest.failf "expected non-RUP at step 1, got %a" Proof.pp_verdict v

let test_delete_unknown_ignored () =
  (* deleting a clause that was never added is a no-op, not an error *)
  let proof =
    {
      Proof.inputs = deletable_inputs;
      steps =
        [ Proof.Delete [| Lit.pos 5; Lit.neg_of 6 |]; Proof.Learn chained_learn ];
    }
  in
  match Proof.check proof with
  | Proof.Invalid { step_index = 2; reason = "proof does not derive []" } -> ()
  | v -> Alcotest.failf "learn not accepted: %a" Proof.pp_verdict v

let test_step_budget () =
  let nvars, clauses = php_clauses 4 in
  let result, s = solve_logged nvars clauses in
  Alcotest.(check bool) "unsat" true (result = Solver.Unsat);
  match Solver.proof s with
  | None -> Alcotest.fail "no proof"
  | Some proof -> (
      match Proof.check ~max_steps:1 proof with
      | Proof.Invalid { reason = "step budget exceeded"; _ } -> ()
      | v -> Alcotest.failf "expected budget rejection, got %a" Proof.pp_verdict v)

(* -- backward check / trimmed core --------------------------------------- *)

let test_backward_core_checks () =
  let nvars, clauses = php_clauses 4 in
  let result, s = solve_logged nvars clauses in
  Alcotest.(check bool) "unsat" true (result = Solver.Unsat);
  match Solver.proof s with
  | None -> Alcotest.fail "no proof"
  | Some proof -> (
      match Proof.check_backward proof with
      | Error v -> Alcotest.failf "backward check failed: %a" Proof.pp_verdict v
      | Ok core ->
          Alcotest.(check bool) "core inputs bounded" true
            (core.Proof.core_inputs <= core.Proof.total_inputs);
          Alcotest.(check bool) "core steps bounded" true
            (core.Proof.core_steps <= core.Proof.total_steps);
          (* the trimmed core must itself be a complete valid proof *)
          Alcotest.(check bool) "trimmed core re-checks" true
            (Proof.check core.Proof.trimmed = Proof.Valid))

let test_backward_rejects_incomplete () =
  (* a trace without the empty clause has no core to trim *)
  let proof =
    { Proof.inputs = deletable_inputs; steps = [ Proof.Learn [| Lit.pos 0 |] ] }
  in
  match Proof.check_backward proof with
  | Error (Proof.Invalid _) -> ()
  | Error Proof.Valid -> Alcotest.fail "contradictory verdict"
  | Ok _ -> Alcotest.fail "incomplete trace produced a core"

(* -- textual DRUP round trip --------------------------------------------- *)

let test_of_drup_parses () =
  match Proof.of_drup "1 -2 0\nd 3 0\n0\n" with
  | Ok
      [
        Proof.Learn [| l1; l2 |]; Proof.Delete [| l3 |]; Proof.Learn [||];
      ] ->
      Alcotest.(check int) "l1" (Lit.to_int (Lit.pos 0)) (Lit.to_int l1);
      Alcotest.(check int) "l2" (Lit.to_int (Lit.neg_of 1)) (Lit.to_int l2);
      Alcotest.(check int) "l3" (Lit.to_int (Lit.pos 2)) (Lit.to_int l3)
  | Ok _ -> Alcotest.fail "wrong steps"
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_of_drup_rejects_garbage () =
  (match Proof.of_drup "1 x 0\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a non-integer literal");
  match Proof.of_drup "1 2\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an unterminated line"

let steps_gen =
  let open QCheck2.Gen in
  let lit =
    let* v = int_range 0 6 in
    let* s = bool in
    return (Lit.make v s)
  in
  let step =
    let* lits = array_size (int_range 0 4) lit in
    let* del = bool in
    return (if del then Proof.Delete lits else Proof.Learn lits)
  in
  list_size (int_range 0 12) step

let drup_roundtrip =
  qtest ~count:200 "of_drup inverts to_drup" steps_gen (fun steps ->
      Proof.of_drup (Proof.to_drup { Proof.inputs = []; steps }) = Ok steps)

let test_to_drup_format () =
  let proof =
    {
      Proof.inputs = [];
      steps = [ Proof.Learn [| Lit.pos 0; Lit.neg_of 1 |]; Proof.Learn [||] ];
    }
  in
  Alcotest.(check string) "drup text" "1 -2 0\n0\n" (Proof.to_drup proof)

let random_unsat_proofs_check =
  qtest ~count:60 "UNSAT answers carry checkable certificates"
    (cnf_gen ~max_vars:7 ~max_clauses:40 ~max_len:3)
    (fun (nvars, clauses) ->
      let result, s = solve_logged nvars clauses in
      match result with
      | Solver.Unsat -> (
          match Solver.proof s with
          | Some proof -> Proof.check proof = Proof.Valid
          | None -> false)
      | _ -> true)

let suite =
  [
    ("php4 proof checks", `Quick, test_php_proof_checks 4);
    ("php5 proof checks", `Slow, test_php_proof_checks 5);
    ("trivial unsat proof", `Quick, test_trivial_unsat_proof);
    ("sat traces do not certify", `Quick, test_sat_has_no_empty_clause);
    ("forged proof rejected", `Quick, test_forged_proof_rejected);
    ("delete removes a live clause", `Quick, test_delete_removes_clause);
    ("delete of unknown clause ignored", `Quick, test_delete_unknown_ignored);
    ("step budget enforced", `Quick, test_step_budget);
    ("backward check trims a valid core", `Quick, test_backward_core_checks);
    ("backward check rejects incomplete trace", `Quick,
     test_backward_rejects_incomplete);
    ("drup text format", `Quick, test_to_drup_format);
    ("drup text parses", `Quick, test_of_drup_parses);
    ("drup parser rejects garbage", `Quick, test_of_drup_rejects_garbage);
    drup_roundtrip;
    random_unsat_proofs_check;
  ]
