(* Tests for qxm_audit: certificate emission, the JSON round trip, and
   the offline auditor — including one seeded corruption per QA-E code
   family, each of which must be rejected with its own diagnostic. *)

module Mapper = Qxm_exact.Mapper
module Portfolio = Qxm_exact.Portfolio
module Strategy = Qxm_exact.Strategy
module Devices = Qxm_arch.Devices
module Coupling = Qxm_arch.Coupling
module Qasm = Qxm_circuit.Qasm
module Circuit = Qxm_circuit.Circuit
module Gate = Qxm_circuit.Gate
module Decompose = Qxm_circuit.Decompose
module Certificate = Qxm_audit.Certificate
module Auditor = Qxm_audit.Auditor
module Emit = Qxm_audit.Emit
module Suite = Qxm_benchmarks.Suite
module Examples = Qxm_benchmarks.Examples
module D = Qxm_lint.Diagnostic

(* Fig. 1-style smoke circuit: 3 logical qubits, 4 CNOTs, F* = 4 on QX4
   under the minimal strategy. *)
let smoke_qasm =
  "OPENQASM 2.0;\n\
   include \"qelib1.inc\";\n\
   qreg q[3];\n\
   cx q[0],q[1];\n\
   cx q[1],q[2];\n\
   cx q[2],q[0];\n\
   cx q[1],q[0];\n"

let options = { Mapper.default with certificate = true }

(* One solve, shared by every test below. *)
let clean_cert =
  lazy
    (let circuit = Qasm.parse_string smoke_qasm in
     match Mapper.run ~options ~arch:Devices.qx4 circuit with
     | Error f -> Alcotest.failf "mapper failed: %a" Mapper.pp_failure f
     | Ok r -> (
         if not r.Mapper.optimal then Alcotest.fail "answer not optimal";
         match
           Emit.of_report ~device_name:"qx4" ~arch:Devices.qx4 ~circuit
             ~options r
         with
         | Error e -> Alcotest.failf "emit failed: %s" e
         | Ok cert -> cert))

let has_code (r : Auditor.report) code =
  List.exists (fun d -> d.D.code = code) r.diagnostics

let check_rejected ~code cert =
  let r = Auditor.run cert in
  Alcotest.(check bool) "rejected" false r.Auditor.ok;
  Alcotest.(check bool) (code ^ " raised") true (has_code r code)

let test_clean_cert_audits_green () =
  let cert = Lazy.force clean_cert in
  Alcotest.(check int) "claimed F*" 4 cert.Certificate.claimed_cost;
  let r = Auditor.run cert in
  if not r.Auditor.ok then
    Alcotest.failf "clean certificate rejected: %s"
      (String.concat "; " (List.map D.to_string r.Auditor.diagnostics));
  Alcotest.(check bool) "core stats reported" true (has_code r "QA-I101");
  Alcotest.(check bool) "a core was extracted" true (r.Auditor.core <> None)

let test_json_roundtrip () =
  let cert = Lazy.force clean_cert in
  match Certificate.of_string (Certificate.to_string cert) with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok cert' ->
      Alcotest.(check bool) "fields preserved" true (cert = cert');
      Alcotest.(check bool) "still audits green" true (Auditor.run cert').ok

let test_audit_string_bad_json () =
  let r = Auditor.audit_string "{ not json" in
  Alcotest.(check bool) "rejected" false r.Auditor.ok;
  Alcotest.(check bool) "QA-E001 raised" true (has_code r "QA-E001")

(* -- seeded corruptions -------------------------------------------------- *)

let test_inflated_cost () =
  let cert = Lazy.force clean_cert in
  check_rejected ~code:"QA-E004"
    { cert with Certificate.claimed_cost = cert.Certificate.claimed_cost + 7 }

let test_deflated_cost () =
  let cert = Lazy.force clean_cert in
  check_rejected ~code:"QA-E005"
    { cert with Certificate.claimed_cost = cert.Certificate.claimed_cost - 4 }

(* Negate the first literal of the first Learn line of the DRUP text,
   leaving deletions and terminators alone. *)
let flip_first_literal drup =
  let flipped = ref false in
  let fix line =
    if
      !flipped || line = ""
      || (String.length line >= 2 && String.sub line 0 2 = "d ")
    then line
    else
      match String.split_on_char ' ' line with
      | tok :: rest when tok <> "0" ->
          flipped := true;
          String.concat " " (string_of_int (-int_of_string tok) :: rest)
      | _ -> line
  in
  let out =
    String.concat "\n" (List.map fix (String.split_on_char '\n' drup))
  in
  if not !flipped then Alcotest.fail "no literal to flip";
  out

let test_flipped_proof_literal () =
  let cert = Lazy.force clean_cert in
  check_rejected ~code:"QA-E007"
    {
      cert with
      Certificate.proof_drup = flip_first_literal cert.Certificate.proof_drup;
    }

(* Drop the final line — the empty clause concluding the derivation. *)
let drop_last_step drup =
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' drup)
  in
  match List.rev lines with
  | last :: rest ->
      Alcotest.(check string) "trace ends with the empty clause" "0" last;
      String.concat "\n" (List.rev rest) ^ "\n"
  | [] -> Alcotest.fail "empty trace"

let test_dropped_final_step () =
  let cert = Lazy.force clean_cert in
  check_rejected ~code:"QA-E008"
    {
      cert with
      Certificate.proof_drup = drop_last_step cert.Certificate.proof_drup;
    }

(* Append a stray H to the mapped circuit, recomputing the elementary
   decomposition consistently so only the equivalence check can object:
   an extra single-qubit gate costs nothing in the objective and
   violates no coupling constraint, but it changes the unitary. *)
let test_perturbed_mapped_circuit () =
  let cert = Lazy.force clean_cert in
  let mapped =
    Circuit.add_single (Qasm.parse_string cert.Certificate.mapped_qasm) Gate.H 0
  in
  let back = Array.of_list cert.Certificate.subset in
  let device =
    Coupling.create ~num_qubits:cert.Certificate.device_qubits
      cert.Certificate.device_edges
  in
  let mapped_dev =
    Circuit.map_qubits
      (fun p -> back.(p))
      cert.Certificate.device_qubits mapped
  in
  let elementary =
    Decompose.elementary ~allowed:(Coupling.allows device) mapped_dev
  in
  let bad =
    {
      cert with
      Certificate.mapped_qasm = Qasm.to_string mapped;
      elementary_qasm = Qasm.to_string elementary;
    }
  in
  let r = Auditor.run bad in
  Alcotest.(check bool) "rejected" false r.Auditor.ok;
  Alcotest.(check bool) "QA-E013 raised" true (has_code r "QA-E013");
  (* the corruption must be attributed to equivalence alone *)
  Alcotest.(check bool) "no decomposition complaint" false
    (has_code r "QA-E010");
  Alcotest.(check bool) "no objective complaint" false (has_code r "QA-E012")

let test_corrupt_model () =
  let cert = Lazy.force clean_cert in
  (* truncating the model below the encoding's variable count is
     structurally malformed — distinct from a falsifying model *)
  check_rejected ~code:"QA-E003"
    { cert with Certificate.model = Array.sub cert.Certificate.model 0 3 }

let test_non_induced_subset () =
  let cert = Lazy.force clean_cert in
  check_rejected ~code:"QA-E002"
    { cert with Certificate.subset = [ 0; 0; 1 ] }

(* -- a certificate with a seeded bound ------------------------------------ *)

(* One call seeded with a loose bound (11, against F* = 4), as a
   portfolio rung seeded with an incumbent would run.  The seed is the
   first enforced bound and the descent adds at least the final one
   below F*, so the certificate carries two or more bounds and only
   replaying all of them reproduces the clause stream the proof was
   logged against.  The warm start is off, so the descent passes through
   several models and the ladder is longer than seed plus final bound. *)
let seeded_options =
  {
    Mapper.default with
    certificate = true;
    warm_start = false;
    upper_bound = Some 11;
  }

let seeded_cert =
  lazy
    (let circuit = Qasm.parse_string smoke_qasm in
     match Mapper.run ~options:seeded_options ~arch:Devices.qx4 circuit with
     | Error f -> Alcotest.failf "mapper failed: %a" Mapper.pp_failure f
     | Ok r -> (
         if not r.Mapper.optimal then Alcotest.fail "answer not optimal";
         match
           Emit.of_report ~device_name:"qx4" ~arch:Devices.qx4 ~circuit
             ~options:seeded_options r
         with
         | Error e -> Alcotest.failf "emit failed: %s" e
         | Ok cert -> cert))

let test_seeded_cert_audits_green () =
  let cert = Lazy.force seeded_cert in
  Alcotest.(check int) "claimed F*" 4 cert.Certificate.claimed_cost;
  let r = Auditor.run cert in
  if not r.Auditor.ok then
    Alcotest.failf "seeded certificate rejected: %s"
      (String.concat "; " (List.map D.to_string r.Auditor.diagnostics))

(* Stripping the whole ladder leaves a proof that certifies nothing. *)
let test_seeded_cert_missing_bounds () =
  let cert = Lazy.force seeded_cert in
  check_rejected ~code:"QA-E014" { cert with Certificate.bounds = [] }

(* Dropping only the tightest rung keeps a plausible-looking ladder, but
   the replayed input stream no longer contains the clauses of the final
   enforcement at F* - 1.  The remaining formula is satisfiable — the
   model itself attains the claimed optimum — so the recorded derivation
   of the empty clause cannot replay: some step must fail the RUP check. *)
let test_seeded_cert_dropped_tightest_bound () =
  let cert = Lazy.force seeded_cert in
  let bounds = cert.Certificate.bounds in
  let b_min = List.fold_left min max_int bounds in
  let weakened = List.filter (fun b -> b <> b_min) bounds in
  if weakened = [] then
    Alcotest.failf "expected a multi-rung ladder, got bounds [%s]"
      (String.concat "; " (List.map string_of_int bounds));
  check_rejected ~code:"QA-E007" { cert with Certificate.bounds = weakened }

(* -- the symmetry flag ----------------------------------------------------- *)

let remove_substring ~sub s =
  let len = String.length sub in
  let n = String.length s in
  let rec find i =
    if i + len > n then None
    else if String.sub s i len = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> Alcotest.failf "substring %S not found in certificate JSON" sub
  | Some i -> String.sub s 0 i ^ String.sub s (i + len) (n - i - len)

(* Certificates that predate symmetry breaking have no "symmetry" field;
   parsing must default it to false (their encodings carried no
   symmetry-breaking clauses) and leave every other field intact. *)
let test_symmetry_field_defaults_to_false () =
  let cert = Lazy.force clean_cert in
  let json =
    remove_substring
      ~sub:(Printf.sprintf ", \"symmetry\": %b" cert.Certificate.symmetry)
      (Certificate.to_string cert)
  in
  match Certificate.of_string json with
  | Error e -> Alcotest.failf "pre-symmetry certificate rejected: %s" e
  | Ok cert' ->
      Alcotest.(check bool) "defaults to false" false
        cert'.Certificate.symmetry;
      Alcotest.(check bool) "other fields preserved" true
        (cert' = { cert with Certificate.symmetry = false })

(* -- capped objective circuits ----------------------------------------- *)

let check_green what cert =
  let r = Auditor.run cert in
  if not r.Auditor.ok then
    Alcotest.failf "%s rejected: %s" what
      (String.concat "; " (List.map D.to_string r.Auditor.diagnostics))

let certify ~arch ~options qasm =
  let circuit = Qasm.parse_string qasm in
  match Mapper.run ~options ~arch circuit with
  | Error f -> Alcotest.failf "mapper failed: %a" Mapper.pp_failure f
  | Ok r -> (
      match Emit.of_report ~device_name:"test" ~arch ~circuit ~options r with
      | Error e -> Alcotest.failf "emit failed: %s" e
      | Ok cert -> cert)

let cap_of (cert : Certificate.t) =
  match cert.pb_cap with
  | Some c -> c
  | None -> Alcotest.fail "certificate records no pb_cap"

(* A 3-qubit, 5-CNOT circuit mapped onto the whole of QX4 with no
   heuristic bound: the first model costs F = 4, and nothing lies between
   0 and 4 under the paper's weights, so the producer builds its circuit
   at 3 while the first (and only) bound it enforces is [tighten 3 = 0].
   The cap cannot be read off [bounds]: a circuit rebuilt at 0 has its
   overflow at 1 and fails the ladder check (QA-E014). *)
let test_cap_above_first_bound () =
  let options =
    { options with Mapper.warm_start = false; use_subsets = false }
  in
  let circuit =
    Qxm_benchmarks.Generator.random_circuit ~seed:3 ~qubits:3 ~cnots:5
      ~singles:0
  in
  let cert = certify ~arch:Devices.qx4 ~options (Qasm.to_string circuit) in
  Alcotest.(check int) "claimed F*" 4 cert.claimed_cost;
  Alcotest.(check bool) "cap above the first enforced bound" true
    (cap_of cert > List.hd cert.bounds);
  check_green "certificate capped above its first bound" cert

(* The certificate written for examples/fig1a.qasm before QXMCERT1 had a
   pb_cap field: its producer built the circuit over every sum. *)
let uncapped_fixture () =
  match Certificate.of_string Fixtures.fig1a_uncapped with
  | Ok cert -> cert
  | Error e -> Alcotest.failf "fixture does not parse: %s" e

let test_uncapped_fixture_audits_green () =
  let cert = uncapped_fixture () in
  Alcotest.(check (option int)) "no pb_cap" None cert.pb_cap;
  check_green "pre-cap certificate" cert

(* The same circuit mapped now: raising the recorded cap renumbers the
   circuit's variables past it, so the producer's proof no longer replays;
   lowering it below a recorded bound is an invalid instance. *)
let test_edited_cap_rejected () =
  let cert =
    certify ~arch:Devices.qx4 ~options (uncapped_fixture ()).original_qasm
  in
  check_green "fresh fig1a certificate" cert;
  let cap = cap_of cert in
  check_rejected ~code:"QA-E007" { cert with pb_cap = Some (cap + 1) };
  check_rejected ~code:"QA-E002"
    { cert with pb_cap = Some (List.fold_left max min_int cert.bounds - 1) }

(* -- portfolio answers ----------------------------------------------- *)

(* Certificates for [Portfolio.run] answers: every stage is a ladder rung
   on the requested strategy, so the witness's model and proof live over
   the very encoding the certificate records and audit as emitted.  The
   one-CNOT input has F* = 0, whose certificate carries no proof at all. *)
let test_portfolio_certs_audit_green () =
  let options =
    {
      Portfolio.default with
      exact = { Portfolio.default.exact with certificate = true };
    }
  in
  let row name = (name, (Option.get (Suite.by_name name)).circuit) in
  List.iter
    (fun (name, circuit) ->
      let optimum =
        match Mapper.run ~arch:Devices.qx4 circuit with
        | Ok r when r.Mapper.optimal -> r.Mapper.f_cost
        | Ok _ -> Alcotest.failf "%s: plain mapper did not prove" name
        | Error f ->
            Alcotest.failf "%s: mapper failed: %a" name Mapper.pp_failure f
      in
      match Portfolio.run ~options ~arch:Devices.qx4 circuit with
      | Error e ->
          Alcotest.failf "%s: portfolio failed: %a" name Portfolio.pp_failure e
      | Ok r -> (
          Alcotest.(check bool)
            (name ^ ": every stage is a ladder rung")
            true
            (List.for_all
               (fun (s : Portfolio.stage) ->
                 String.starts_with ~prefix:"exact:" s.stage)
               r.stages);
          match
            Emit.of_portfolio ~device_name:"qx4" ~arch:Devices.qx4 ~circuit
              ~options r
          with
          | Error e -> Alcotest.failf "%s: emit failed: %s" name e
          | Ok cert ->
              Alcotest.(check int) (name ^ ": claimed F*") optimum
                cert.claimed_cost;
              if optimum = 0 then
                Alcotest.(check string) (name ^ ": empty proof") ""
                  cert.proof_drup;
              check_green (name ^ " portfolio certificate") cert))
    (("fig1a", Examples.fig1a)
    :: ("one-cnot", Circuit.create 2 [ Gate.Cnot (0, 1) ])
    :: List.map row [ "ex-1_166"; "ham3_102"; "4gt11_84" ])

let suite =
  [
    ("clean certificate audits green", `Quick, test_clean_cert_audits_green);
    ("json round trip", `Quick, test_json_roundtrip);
    ("bad json is QA-E001", `Quick, test_audit_string_bad_json);
    ("inflated cost is QA-E004", `Quick, test_inflated_cost);
    ("deflated cost is QA-E005", `Quick, test_deflated_cost);
    ("flipped proof literal is QA-E007", `Quick, test_flipped_proof_literal);
    ("dropped final step is QA-E008", `Quick, test_dropped_final_step);
    ("perturbed mapped circuit is QA-E013", `Quick,
     test_perturbed_mapped_circuit);
    ("truncated model is QA-E003", `Quick, test_corrupt_model);
    ("non-ascending subset is QA-E002", `Quick, test_non_induced_subset);
    ("seeded certificate audits green", `Quick,
     test_seeded_cert_audits_green);
    ("stripped bound ladder is QA-E014", `Quick,
     test_seeded_cert_missing_bounds);
    ("dropped tightest bound is QA-E007", `Quick,
     test_seeded_cert_dropped_tightest_bound);
    ("missing symmetry field defaults to false", `Quick,
     test_symmetry_field_defaults_to_false);
    ("cap above the first bound audits green", `Quick,
     test_cap_above_first_bound);
    ("uncapped certificate still audits", `Quick,
     test_uncapped_fixture_audits_green);
    ("edited pb_cap is rejected", `Quick, test_edited_cap_rejected);
    ("portfolio certificates audit green", `Quick,
     test_portfolio_certs_audit_green);
  ]
