module D = Qxm_lint.Diagnostic
module Circuit = Qxm_circuit.Circuit
module Qasm = Qxm_circuit.Qasm
module Decompose = Qxm_circuit.Decompose
module Equiv = Qxm_circuit.Equiv
module Coupling = Qxm_arch.Coupling
module Lit = Qxm_sat.Lit
module Proof = Qxm_sat.Proof
module Solver = Qxm_sat.Solver
module Cnf = Qxm_encode.Cnf
module Pb = Qxm_encode.Pb
module Encoding = Qxm_exact.Encoding
module Strategy = Qxm_exact.Strategy
module Certify = Qxm_exact.Certify
module Minimize = Qxm_opt.Minimize

type report = {
  diagnostics : D.t list;
  ok : bool;
  core : Proof.core option;
}

(* The audit accumulates diagnostics and aborts only where continuing
   is impossible (unparsable artifact, invalid instance, a model too
   short to index).  Independent checks — cost recount, proof replay,
   circuit-level validation — all run even after one of them fails, so
   a single report tells the whole story. *)
exception Abort

let errf add fail ~abort code fmt =
  Format.kasprintf
    (fun message ->
      add (D.make ~code ~severity:D.Error message);
      if abort then fail ())
    fmt

let is_strictly_ascending l =
  let rec go = function
    | a :: (b :: _ as rest) -> a < b && go rest
    | _ -> true
  in
  go l

let is_permutation a =
  let n = Array.length a in
  let seen = Array.make n false in
  Array.for_all
    (fun p ->
      p >= 0 && p < n
      && not seen.(p)
      &&
      (seen.(p) <- true;
       true))
    a

(* A literal's value under a (possibly partial) model: variables past
   the model's end count as false, which is conservative for clause
   satisfaction checks. *)
let lit_true model l =
  let v = Lit.var l in
  v < Array.length model && if Lit.sign l then model.(v) else not model.(v)

let clause_satisfied model c = Array.exists (lit_true model) c

let run ?(max_steps = Proof.default_max_steps) ?(equiv_max_qubits = 10)
    (cert : Certificate.t) =
  let diags = ref [] in
  let core = ref None in
  let add d = diags := d :: !diags in
  let fail () = raise Abort in
  let error ?(abort = false) code fmt = errf add fail ~abort code fmt in
  let info code fmt =
    Format.kasprintf
      (fun message -> add (D.make ~code ~severity:D.Info message))
      fmt
  in
  (try
     (* QA-E001: the bundled programs must parse. *)
     let parse_qasm what s =
       match Qasm.parse_string s with
       | c -> c
       | exception Qasm.Parse_error { line; message } ->
           error ~abort:true "QA-E001"
             "%s circuit does not parse (line %d: %s)" what line message;
           assert false
     in
     let original = parse_qasm "original" cert.original_qasm in
     let mapped = parse_qasm "mapped" cert.mapped_qasm in
     let elementary = parse_qasm "elementary" cert.elementary_qasm in
     (* QA-E002: rebuild the instance and validate every ingredient. *)
     let e002 fmt = error ~abort:true "QA-E002" fmt in
     let device =
       match
         Coupling.create ~num_qubits:cert.device_qubits cert.device_edges
       with
       | d -> d
       | exception Invalid_argument m ->
           e002 "invalid device: %s" m;
           assert false
     in
     if cert.subset = [] then e002 "empty qubit subset";
     if not (is_strictly_ascending cert.subset) then
       e002 "subset is not strictly ascending";
     List.iter
       (fun q ->
         if q < 0 || q >= cert.device_qubits then
           e002 "subset qubit %d is not on the device" q)
       cert.subset;
     let sub_arch, back = Coupling.induce device cert.subset in
     let k = Coupling.num_qubits sub_arch in
     let strategy =
       match Strategy.of_string cert.strategy with
       | Some s -> s
       | None ->
           e002 "unknown strategy %S" cert.strategy;
           assert false
     in
     let amo =
       match Certificate.amo_of_name cert.amo with
       | Some a -> a
       | None ->
           e002 "unknown AMO scheme %S" cert.amo;
           assert false
     in
     if cert.swap_weight < 0 || cert.flip_weight < 0 then
       e002 "negative objective weights";
     if cert.claimed_cost < 0 then e002 "negative claimed cost";
     let costs =
       {
         Encoding.swap_weight = cert.swap_weight;
         flip_weight = cert.flip_weight;
       }
     in
     let cnot_list = Circuit.cnots original in
     let instance =
       {
         Encoding.arch = sub_arch;
         num_logical = Circuit.num_qubits original;
         cnots = Array.of_list cnot_list;
         spots = Strategy.spots strategy cnot_list;
       }
     in
     (match Encoding.validate instance with
     | () -> ()
     | exception Invalid_argument m -> e002 "invalid instance: %s" m);
     if Circuit.num_qubits mapped <> k then
       e002 "mapped circuit has %d wires but the instance has %d qubits"
         (Circuit.num_qubits mapped) k;
     if Array.length cert.init_full <> k || not (is_permutation cert.init_full)
     then e002 "init_full is not a permutation of the %d positions" k;
     if
       Array.length cert.final_full <> k
       || not (is_permutation cert.final_full)
     then e002 "final_full is not a permutation of the %d positions" k;
     (* Re-derive the encoding on a fresh logging solver.  The
        certificate never supplies clauses: the input stream the proof
        is checked against comes from here.  The symmetry flag is the
        only encoding degree of freedom the certificate selects beyond
        strategy/AMO/costs — lex-leader clauses are optimum-preserving,
        so honoring it cannot weaken the claimed bound, and the proof
        only replays if the flag matches the producer's. *)
     let solver = Solver.create () in
     Solver.enable_proof solver;
     let cnf = Cnf.create solver in
     let built =
       Encoding.build ~amo ~costs ~symmetry:cert.symmetry cnf instance
     in
     let encoding_inputs =
       match Solver.proof solver with
       | Some p -> List.length p.Proof.inputs
       | None -> 0
     in
     let objective = Encoding.objective built in
     (* QA-E003: model shape, then model ⊨ encoding.  Only the encoding
        clauses are checked — the final bound of the ladder excludes
        the optimum's own model from the PB circuit by design. *)
     if Array.length cert.model < Encoding.var_count built then
       error ~abort:true "QA-E003"
         "model has %d bits but the encoding uses %d variables"
         (Array.length cert.model)
         (Encoding.var_count built);
     (* Replay the recorded bound ladder to reproduce the exact clause
        stream the producing solver saw. *)
     (match cert.pb_cap with
     | Some cap when List.exists (fun b -> b > cap) cert.bounds ->
         error ~abort:true "QA-E002"
           "pb_cap %d is below an enforced bound: the circuit cannot \
            express it"
           cap
     | _ -> ());
     let pb =
       if cert.bounds <> [] || cert.claimed_cost > 0 then
         Some (Pb.build ?cap:cert.pb_cap cnf objective)
       else None
     in
     (match pb with
     | Some pb -> List.iter (fun b -> Pb.enforce_at_most cnf pb b) cert.bounds
     | None -> ());
     let inputs =
       match Solver.proof solver with
       | Some p -> p.Proof.inputs
       | None -> []
     in
     let falsified = ref (-1) in
     List.iteri
       (fun i c ->
         if i < encoding_inputs && !falsified < 0
            && not (clause_satisfied cert.model c)
         then falsified := i)
       inputs;
     if !falsified >= 0 then
       error "QA-E003" "model falsifies encoding clause #%d" !falsified;
     (* QA-E004 / QA-E005: the claimed F* against the model's own
        objective value. *)
     let model_cost = Minimize.cost_of_model objective cert.model in
     if cert.claimed_cost > model_cost then
       error "QA-E004"
         "claimed cost %d is inflated: the model witnesses objective %d"
         cert.claimed_cost model_cost
     else if cert.claimed_cost < model_cost then
       error "QA-E005" "model realizes objective %d, not the claimed %d"
         model_cost cert.claimed_cost;
     (* Proof replay.  A claimed cost of 0 needs no proof: weights are
        non-negative, so 0 is a lower bound by construction. *)
     (if cert.claimed_cost > 0 then
        match pb with
        | None -> assert false
        | Some pb -> (
            if cert.bounds = [] then
              error "QA-E014"
                "no bound was enforced: nothing certifies F <= %d unsat"
                (cert.claimed_cost - 1)
            else
              let b_min = List.fold_left min max_int cert.bounds in
              (* The proof (once valid) excludes every attainable value
                 <= b_min; optimality of F* needs that exclusion to
                 reach F* - 1, i.e. no attainable value in between. *)
              (match Pb.next_above pb b_min with
              | Some v when v < cert.claimed_cost ->
                  error "QA-E014"
                    "proved bound %d leaves a gap: objective value %d < \
                     claimed %d is not excluded"
                    b_min v cert.claimed_cost
              | _ -> ());
              match Proof.of_drup cert.proof_drup with
              | Error m -> error "QA-E006" "proof does not parse: %s" m
              | Ok steps -> (
                  let proof = { Proof.inputs; steps } in
                  match Proof.check_backward ~max_steps proof with
                  | Ok c ->
                      core := Some c;
                      info "QA-I101"
                        "proof core: %d of %d inputs, %d of %d steps"
                        c.Proof.core_inputs c.Proof.total_inputs
                        c.Proof.core_steps c.Proof.total_steps
                  | Error (Proof.Invalid { step_index; reason })
                    when reason = "clause is not RUP" ->
                      error "QA-E007" "proof step %d is not RUP" step_index
                  | Error (Proof.Invalid { reason; _ })
                    when reason = "proof does not derive []" ->
                      error "QA-E008" "proof does not derive the empty clause"
                  | Error (Proof.Invalid { step_index; reason })
                    when reason = "step budget exceeded" ->
                      error "QA-E009"
                        "proof replay exceeded %d steps (at step %d)"
                        max_steps step_index
                  | Error v ->
                      error "QA-E007" "proof rejected: %a" Proof.pp_verdict v))
      else if cert.proof_drup <> "" then
        error "QA-E006" "claimed cost 0 must not carry a proof");
     (* Circuit-level checks, all in terms of the re-derived instance:
        decomposition, device compliance, objective recount,
        equivalence. *)
     let mapped_dev =
       Circuit.map_qubits (fun p -> back.(p)) cert.device_qubits mapped
     in
     let elementary' =
       Decompose.elementary ~allowed:(Coupling.allows device) mapped_dev
     in
     if not (Circuit.equal elementary' elementary) then
       error "QA-E010"
         "elementary circuit is not the decomposition of the mapped circuit";
     (match Certify.compliance ~arch:device elementary with
     | Ok () -> ()
     | Error m -> error "QA-E011" "elementary circuit violates coupling: %s" m);
     let realized = Certify.objective_of_mapped ~costs ~arch:sub_arch mapped in
     if realized <> cert.claimed_cost then
       error "QA-E012" "mapped circuit realizes objective %d, not claimed %d"
         realized cert.claimed_cost;
     match
       Equiv.check ~max_qubits:equiv_max_qubits
         ~allowed:(Coupling.allows sub_arch) ~original ~mapped
         ~init_full:cert.init_full ~final_full:cert.final_full ()
     with
     | Some true -> ()
     | Some false ->
         error "QA-E013" "mapped circuit is not equivalent to the original"
     | None ->
         info "QA-I102" "equivalence skipped: %d qubits exceed the %d-qubit \
                         simulation limit"
           k equiv_max_qubits
   with Abort -> ());
  let diagnostics = List.stable_sort D.by_severity (List.rev !diags) in
  { diagnostics; ok = D.errors diagnostics = []; core = !core }

let audit_string ?max_steps ?equiv_max_qubits s =
  match Certificate.of_string s with
  | Error m ->
      let d =
        D.makef ~code:"QA-E001" ~severity:D.Error
          "certificate does not parse: %s" m
      in
      { diagnostics = [ d ]; ok = false; core = None }
  | Ok cert -> run ?max_steps ?equiv_max_qubits cert
