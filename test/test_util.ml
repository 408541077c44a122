(* Shared helpers for the test suites. *)

module Lit = Qxm_sat.Lit
module Solver = Qxm_sat.Solver

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* Evaluate a clause list under an assignment (variable -> bool). *)
let eval_clauses clauses assign =
  List.for_all
    (fun clause ->
      List.exists
        (fun l ->
          let v = assign (Lit.var l) in
          if Lit.sign l then v else not v)
        clause)
    clauses

(* Brute-force satisfiability over [nvars] variables. *)
let brute_sat nvars clauses =
  let rec go i assign =
    if i = nvars then eval_clauses clauses (fun v -> assign.(v))
    else begin
      assign.(i) <- false;
      go (i + 1) assign
      ||
      (assign.(i) <- true;
       go (i + 1) assign)
    end
  in
  go 0 (Array.make (max nvars 1) false)

(* Brute-force minimal objective value over satisfying assignments;
   None when unsatisfiable. *)
let brute_min nvars clauses objective =
  let best = ref None in
  let rec go i assign =
    if i = nvars then begin
      if eval_clauses clauses (fun v -> assign.(v)) then begin
        let cost =
          List.fold_left
            (fun acc (w, l) ->
              let v = assign.(Lit.var l) in
              let value = if Lit.sign l then v else not v in
              if value then acc + w else acc)
            0 objective
        in
        match !best with
        | Some b when b <= cost -> ()
        | _ -> best := Some cost
      end
    end
    else begin
      assign.(i) <- false;
      go (i + 1) assign;
      assign.(i) <- true;
      go (i + 1) assign
    end
  in
  go 0 (Array.make (max nvars 1) false);
  !best

(* Fresh solver with [n] variables. *)
let solver_with n =
  let s = Solver.create () in
  for _ = 1 to n do
    ignore (Solver.new_var s)
  done;
  s

(* Check a solver model against the clauses that were added. *)
let model_satisfies clauses model =
  eval_clauses clauses (fun v -> model.(v))

(* Random CNF generator for QCheck2: (nvars, clauses). *)
let cnf_gen ~max_vars ~max_clauses ~max_len =
  let open QCheck2.Gen in
  let* nvars = int_range 1 max_vars in
  let* nclauses = int_range 0 max_clauses in
  let clause =
    let* len = int_range 1 max_len in
    list_size (return len)
      (let* v = int_range 0 (nvars - 1) in
       let* s = bool in
       return (Lit.make v s))
  in
  let* clauses = list_size (return nclauses) clause in
  return (nvars, clauses)

(* Naive substring search, good enough for test assertions. *)
let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh
    && (String.sub haystack i nn = needle || go (i + 1))
  in
  nn = 0 || go 0

(* An input nothing can route: a CNOT chain across a device made of two
   disconnected edges, so no connected set of 4 physical qubits exists
   and a run on it is rejected before any stage as [Disconnected]. *)
let unroutable_device = Qxm_arch.Coupling.create ~num_qubits:4 [ (0, 1); (2, 3) ]

let unroutable_circuit =
  Qxm_circuit.Circuit.create 4
    Qxm_circuit.Gate.[ Cnot (0, 1); Cnot (1, 2); Cnot (2, 3) ]

(* The seven 5-qubit Table-1 rows no budget here proves minimal (the
   benchmark's anytime rows), each with its permutation-DP optimum F*
   on QX4 under the [Minimal] strategy. *)
let hard_rows =
  [
    ("4gt11_82", 32); ("4gt13_92", 55); ("alu-v1_28", 26); ("alu-v1_29", 25);
    ("alu-v3_34", 26); ("qe_qft_4", 37); ("qe_qft_5", 68);
  ]
