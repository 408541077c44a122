(* Tests for the paper's contribution: Strategy, Encoding, Mapper. *)

open Test_util
module Strategy = Qxm_exact.Strategy
module Encoding = Qxm_exact.Encoding
module Mapper = Qxm_exact.Mapper
module Circuit = Qxm_circuit.Circuit
module Gate = Qxm_circuit.Gate
module Decompose = Qxm_circuit.Decompose
module Coupling = Qxm_arch.Coupling
module Devices = Qxm_arch.Devices
module Automorphism = Qxm_arch.Automorphism
module Subsets = Qxm_arch.Subsets
module Examples = Qxm_benchmarks.Examples
module Generator = Qxm_benchmarks.Generator

let fig1b_cnots = Circuit.cnots Examples.fig1b

(* -- Strategy (Ex. 10) --------------------------------------------------- *)

let test_strategy_spots_fig1b () =
  Alcotest.(check (list int)) "minimal: every gate" [ 1; 2; 3; 4 ]
    (Strategy.spots Strategy.Minimal fig1b_cnots);
  Alcotest.(check (list int)) "disjoint: g3,g4,g5" [ 2; 3; 4 ]
    (Strategy.spots Strategy.Disjoint_qubits fig1b_cnots);
  Alcotest.(check (list int)) "odd: g3,g5" [ 2; 4 ]
    (Strategy.spots Strategy.Odd_gates fig1b_cnots);
  Alcotest.(check (list int)) "triangle: g2" [ 1 ]
    (Strategy.spots Strategy.Qubit_triangle fig1b_cnots)

let test_strategy_reported_size () =
  (* Table 1 counts the initial mapping as a permutation point *)
  Alcotest.(check int) "minimal" 5
    (Strategy.reported_size Strategy.Minimal fig1b_cnots);
  Alcotest.(check int) "triangle" 2
    (Strategy.reported_size Strategy.Qubit_triangle fig1b_cnots);
  Alcotest.(check int) "empty" 0 (Strategy.reported_size Strategy.Minimal [])

let test_strategy_names () =
  List.iter
    (fun s ->
      Alcotest.(check (option string))
        "roundtrip"
        (Some (Strategy.name s))
        (Option.map Strategy.name (Strategy.of_string (Strategy.name s))))
    Strategy.all;
  Alcotest.(check bool) "unknown" true (Strategy.of_string "bogus" = None)

let spots_within_range =
  qtest ~count:100 "spots are ascending and within [1, |G|-1]"
    QCheck2.Gen.(
      pair (int_range 0 3)
        (list_size (int_range 0 25)
           (let* a = int_range 0 4 in
            let* b = int_range 0 4 in
            return (a, if a = b then (a + 1) mod 5 else b))))
    (fun (si, cnots) ->
      let strategy = List.nth Strategy.all si in
      let g = List.length cnots in
      let spots = Strategy.spots strategy cnots in
      let rec ascending prev = function
        | [] -> true
        | x :: rest -> x > prev && x >= 1 && x < g && ascending x rest
      in
      ascending 0 spots)

(* -- Encoding ------------------------------------------------------------ *)

let build_instance ?(spots = []) arch num_logical cnots =
  { Encoding.arch; num_logical; cnots = Array.of_list cnots; spots }

let test_encoding_validation () =
  let check_raises name inst =
    Alcotest.(check bool) name true
      (try
         Encoding.validate inst;
         false
       with Invalid_argument _ -> true)
  in
  check_raises "too many logical"
    (build_instance (Devices.line 2) 3 []);
  check_raises "bad cnot"
    (build_instance Devices.qx4 2 [ (0, 2) ]);
  check_raises "self cnot"
    (build_instance Devices.qx4 2 [ (0, 0) ]);
  check_raises "bad spot"
    { (build_instance Devices.qx4 2 [ (0, 1); (1, 0) ]) with spots = [ 5 ] };
  check_raises "disconnected architecture"
    (build_instance
       (Coupling.create ~num_qubits:4 [ (0, 1); (2, 3) ])
       2 [ (0, 1) ])

let solve_built cnf built =
  let outcome =
    Qxm_opt.Minimize.minimize ~cnf ~objective:(Encoding.objective built) ()
  in
  match (outcome.Qxm_opt.Minimize.model, outcome.cost) with
  | Some m, Some c -> (m, c, outcome.optimal)
  | _ -> Alcotest.fail "expected a model"

let test_encoding_trivial_native () =
  (* one CNOT that fits natively: cost 0 *)
  let solver = Qxm_sat.Solver.create () in
  let cnf = Qxm_encode.Cnf.create solver in
  let inst = build_instance Devices.qx4 5 [ (0, 1) ] in
  let built = Encoding.build cnf inst in
  let model, cost, optimal = solve_built cnf built in
  Alcotest.(check int) "free" 0 cost;
  Alcotest.(check bool) "optimal" true optimal;
  let place = (Encoding.mapping_of_model built model).(0) in
  (* logical 0 controls logical 1: the chosen pair must be native *)
  Alcotest.(check bool) "native placement" true
    (Coupling.allows Devices.qx4 place.(0) place.(1))

let test_encoding_forced_flip () =
  (* two-qubit device with a single directed edge and a CNOT in each
     direction: one of them must flip, cost 4 *)
  let arch = Coupling.create ~num_qubits:2 [ (0, 1) ] in
  let solver = Qxm_sat.Solver.create () in
  let cnf = Qxm_encode.Cnf.create solver in
  let inst = build_instance arch 2 [ (0, 1); (1, 0) ] in
  let built = Encoding.build cnf inst in
  let _, cost, optimal = solve_built cnf built in
  Alcotest.(check int) "one flip" 4 cost;
  Alcotest.(check bool) "optimal" true optimal

let test_encoding_line3 () =
  (* Line 0->1->2, CNOTs (0,1),(0,2),(0,1).  Placing q0 on p1, q1 on p2,
     q2 on p0 runs gates 1 and 3 natively and flips gate 2: F = 4.  No
     placement runs all three natively (q0 has only one out-neighbour
     anywhere), so 4 is the optimum. *)
  let arch = Devices.line 3 in
  let solver = Qxm_sat.Solver.create () in
  let cnf = Qxm_encode.Cnf.create solver in
  let cnots = [ (0, 1); (0, 2); (0, 1) ] in
  let inst = build_instance ~spots:[ 1; 2 ] arch 3 cnots in
  let built = Encoding.build cnf inst in
  let _, cost, optimal = solve_built cnf built in
  Alcotest.(check bool) "optimal" true optimal;
  Alcotest.(check int) "single direction flip" 4 cost

let test_encoding_segments () =
  let inst =
    build_instance ~spots:[ 2 ] Devices.qx4 4
      [ (0, 1); (1, 2); (2, 3); (0, 1) ]
  in
  let solver = Qxm_sat.Solver.create () in
  let cnf = Qxm_encode.Cnf.create solver in
  let built = Encoding.build cnf inst in
  Alcotest.(check int) "segments" 2 (Encoding.num_segments built);
  Alcotest.(check int) "gate0 seg" 0 (Encoding.segment_of_gate built 0);
  Alcotest.(check int) "gate1 seg" 0 (Encoding.segment_of_gate built 1);
  Alcotest.(check int) "gate2 seg" 1 (Encoding.segment_of_gate built 2);
  Alcotest.(check int) "gate3 seg" 1 (Encoding.segment_of_gate built 3)

(* -- Mapper: the paper's running example --------------------------------- *)

let run_fig1a strategy =
  let options = { Mapper.default with strategy } in
  match Mapper.run ~options ~arch:Devices.qx4 Examples.fig1a with
  | Ok r -> r
  | Error e -> Alcotest.failf "mapping failed: %a" Mapper.pp_failure e

let test_fig1a_minimal_cost () =
  (* Ex. 7: F = 4 *)
  let r = run_fig1a Strategy.Minimal in
  Alcotest.(check int) "F = 4" 4 r.f_cost;
  Alcotest.(check int) "12 gates" 12 r.total_gates;
  Alcotest.(check bool) "optimal" true r.optimal;
  Alcotest.(check (option bool)) "verified" (Some true) r.verified

let test_fig1a_strategies_all_minimal () =
  (* Ex. 10: the restrictions do not harm minimality on this circuit *)
  List.iter
    (fun strategy ->
      let r = run_fig1a strategy in
      Alcotest.(check int) (Strategy.name strategy ^ " F") 4 r.f_cost;
      Alcotest.(check (option bool)) "verified" (Some true) r.verified)
    Strategy.all

let test_fig1a_gprime_counts () =
  (* |G'| as printed in Table 1 includes the initial mapping *)
  List.iter
    (fun (strategy, expected) ->
      let r = run_fig1a strategy in
      Alcotest.(check int) (Strategy.name strategy) expected
        r.reported_gprime)
    [ (Strategy.Minimal, 5); (Strategy.Disjoint_qubits, 4);
      (Strategy.Odd_gates, 3); (Strategy.Qubit_triangle, 2) ]

let test_fig1a_subsets_tried () =
  (* Ex. 9: 4 of the 5 subsets are connected *)
  let r = run_fig1a Strategy.Minimal in
  Alcotest.(check int) "subsets" 4 r.subsets_tried

let test_mapper_without_subsets () =
  let options =
    { Mapper.default with use_subsets = false; strategy = Strategy.Minimal }
  in
  match Mapper.run ~options ~arch:Devices.qx4 Examples.fig1a with
  | Ok r ->
      Alcotest.(check int) "same minimum on the full device" 4 r.f_cost;
      Alcotest.(check int) "one instance" 1 r.subsets_tried;
      Alcotest.(check (option bool)) "verified" (Some true) r.verified
  | Error e -> Alcotest.failf "failed: %a" Mapper.pp_failure e

let test_mapper_too_many_logical () =
  match Mapper.run ~arch:(Devices.line 2) (Circuit.empty 3) with
  | Error (Mapper.Too_many_logical { logical = 3; physical = 2 }) -> ()
  | _ -> Alcotest.fail "expected Too_many_logical"

let test_mapper_empty_circuit () =
  match Mapper.run ~arch:Devices.qx4 (Circuit.empty 3) with
  | Ok r ->
      Alcotest.(check int) "free" 0 r.f_cost;
      Alcotest.(check int) "no gates" 0 r.total_gates
  | Error e -> Alcotest.failf "failed: %a" Mapper.pp_failure e

let test_mapper_no_cnots () =
  let c =
    Circuit.create 2 [ Gate.Single (Gate.H, 0); Gate.Single (Gate.T, 1) ]
  in
  match Mapper.run ~arch:Devices.qx4 c with
  | Ok r ->
      Alcotest.(check int) "free" 0 r.f_cost;
      Alcotest.(check int) "2 gates" 2 r.total_gates;
      Alcotest.(check (option bool)) "verified" (Some true) r.verified
  | Error e -> Alcotest.failf "failed: %a" Mapper.pp_failure e

let test_mapper_rejects_swaps () =
  let c = Circuit.create 2 [ Gate.Swap (0, 1) ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Mapper.run ~arch:Devices.qx4 c);
       false
     with Invalid_argument _ -> true)

let test_mapper_output_is_compliant () =
  let r = run_fig1a Strategy.Minimal in
  List.iter
    (fun g ->
      match g with
      | Gate.Cnot (c, t) ->
          Alcotest.(check bool) "every CNOT native" true
            (Coupling.allows Devices.qx4 c t)
      | Gate.Swap _ -> Alcotest.fail "swap left in elementary circuit"
      | _ -> ())
    (Circuit.gates r.elementary)

let test_mapper_initial_final_consistent () =
  let r = run_fig1a Strategy.Minimal in
  let sorted a = List.sort compare (Array.to_list a) in
  Alcotest.(check bool) "initial injective" true
    (List.length (List.sort_uniq compare (sorted r.initial)) = 4);
  Alcotest.(check bool) "final injective" true
    (List.length (List.sort_uniq compare (sorted r.final)) = 4)

(* Random end-to-end property: mapping random circuits on several devices
   always yields verified, coupling-compliant results, and the exact
   mapper is never beaten by the heuristic. *)
let mapper_end_to_end =
  qtest ~count:15 "random circuits map, verify, and beat the heuristic"
    QCheck2.Gen.(
      let* seed = int_range 0 10_000 in
      let* qubits = int_range 2 4 in
      let* cnots = int_range 1 6 in
      return (seed, qubits, cnots))
    (fun (seed, qubits, cnots) ->
      let c = Generator.random_circuit ~seed ~qubits ~cnots ~singles:3 in
      let options =
        { Mapper.default with strategy = Strategy.Minimal }
      in
      match Mapper.run ~options ~arch:Devices.qx4 c with
      | Error _ -> false
      | Ok r ->
          let h =
            Qxm_heuristic.Stochastic_swap.run_best ~seed ~times:3
              ~arch:Devices.qx4 c
          in
          r.verified = Some true
          && h.verified = Some true
          && r.optimal
          && r.f_cost <= h.f_cost)

(* Lex-leader symmetry breaking restricts which witness models survive,
   never the attainable objective values: the proven optimum must be
   identical with the constraints on and off.  The circuits map onto QX2,
   because no connected induced subgraph of QX4 has a non-trivial
   automorphism (both runs would build the same CNF there); four of QX2's
   connected 3-subsets ({0,2,3}, {0,2,4}, {1,2,3}, {1,2,4}) have one
   each. *)
let symmetry_preserves_optimum =
  let symmetric_subset =
    List.exists
      (fun s ->
        Automorphism.all (fst (Coupling.induce Devices.qx2 s)) <> [])
      (Subsets.connected Devices.qx2 3)
  in
  qtest ~count:8 "symmetry breaking never changes the optimum"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let c =
        Generator.random_circuit ~seed ~qubits:3 ~cnots:5 ~singles:2
      in
      let run symmetry =
        let options = { Mapper.default with symmetry } in
        match Mapper.run ~options ~arch:Devices.qx2 c with
        | Ok r -> Some (r.f_cost, r.objective_cost, r.optimal)
        | Error _ -> None
      in
      symmetric_subset
      &&
      match (run true, run false) with
      | Some (f1, o1, true), Some (f2, o2, true) -> f1 = f2 && o1 = o2
      | _ -> false)

(* Oracle for the subset race that shares none of its class merging:
   map on every connected subset's induced sub-architecture on its own
   and take the (cost, index)-least answer.  [Mapper.run] solves one
   subset per maximal isomorphism class; it must return the same costs
   and verdict.  Returns [None] when they agree, else both answers. *)
let class_merge_disagreement ~options arch c =
  let summary ~options arch =
    match Mapper.run ~options ~arch c with
    | Ok r -> Some (r.objective_cost, r.f_cost, r.optimal)
    | Error (Mapper.Unmappable _) -> None
    | Error f -> Alcotest.failf "mapper failed: %a" Mapper.pp_failure f
  in
  let least =
    List.fold_left
      (fun best subset ->
        match
          ( best,
            summary
              ~options:{ options with use_subsets = false }
              (fst (Coupling.induce arch subset)) )
        with
        | _, None -> best
        | None, Some (o, f, opt) -> Some (o, f, opt)
        | Some (bo, bf, bopt), Some (o, f, opt) ->
            if o < bo then Some (o, f, bopt && opt)
            else Some (bo, bf, bopt && opt))
      None
      (Subsets.connected arch (Circuit.num_qubits c))
  in
  let show =
    Option.fold ~none:"no mapping" ~some:(fun (o, f, opt) ->
        Printf.sprintf "objective %d, F %d, optimal %b" o f opt)
  in
  let merged = summary ~options arch in
  if merged = least then None
  else
    Some (Printf.sprintf "classes: %s; every subset: %s" (show merged)
            (show least))

let one_solve_per_class ~name ~count ~qubits:(qlo, qhi) ~cnots:(clo, chi)
    devices =
  let gen =
    QCheck2.Gen.(
      let* seed = int_range 0 1_000_000 in
      let* qubits = int_range qlo qhi in
      let* cnots = int_range clo chi in
      let* device = oneofl devices in
      let* strategy = oneofl Strategy.all in
      return (seed, qubits, cnots, device, strategy))
  in
  let print (seed, qubits, cnots, (dev, _), strategy) =
    Printf.sprintf "seed=%d qubits=%d cnots=%d %s %s" seed qubits cnots dev
      (Strategy.name strategy)
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~print ~name gen
       (fun (seed, qubits, cnots, (_, arch), strategy) ->
         let c = Generator.random_circuit ~seed ~qubits ~cnots ~singles:2 in
         let options = { Mapper.default with strategy; verify = false } in
         match class_merge_disagreement ~options arch c with
         | None -> true
         | Some m -> QCheck2.Test.fail_reportf "%s" m))

(* QX5 at 4 qubits has one pair of classes that degrees alone do not
   tell apart: 4-cycles with one source and one sink, adjacent in
   {2, 3, 14, 15} and opposite in {4, 5, 12, 13}.  This circuit's
   interactions form the second shape, so it runs natively only on that
   class; a class merge that lumped the pair together would miss it. *)
let test_qx5_degree_twins () =
  let c =
    Circuit.create 4
      (List.map
         (fun (a, b) -> Gate.Cnot (a, b))
         [ (0, 1); (0, 2); (1, 3); (2, 3) ])
  in
  let options = { Mapper.default with verify = false } in
  Alcotest.(check (option string)) "one solve per class" None
    (class_merge_disagreement ~options Devices.qx5 c)

let strategies_dominate_minimal =
  qtest ~count:10 "restricted strategies never beat the minimal cost"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let c =
        Generator.random_circuit ~seed ~qubits:3 ~cnots:6 ~singles:2
      in
      let run strategy =
        let options = { Mapper.default with strategy } in
        match Mapper.run ~options ~arch:Devices.qx4 c with
        | Ok r -> r.f_cost
        | Error _ -> max_int
      in
      let fmin = run Strategy.Minimal in
      List.for_all
        (fun s -> run s >= fmin)
        [ Strategy.Disjoint_qubits; Strategy.Odd_gates;
          Strategy.Qubit_triangle ])

let suite =
  [
    ("strategy spots fig1b (Ex. 10)", `Quick, test_strategy_spots_fig1b);
    ("strategy reported size", `Quick, test_strategy_reported_size);
    ("strategy names", `Quick, test_strategy_names);
    spots_within_range;
    ("encoding validation", `Quick, test_encoding_validation);
    ("encoding trivial native", `Quick, test_encoding_trivial_native);
    ("encoding forced flip", `Quick, test_encoding_forced_flip);
    ("encoding line3 optimum", `Quick, test_encoding_line3);
    ("encoding segments", `Quick, test_encoding_segments);
    ("fig1a minimal F=4 (Ex. 7)", `Quick, test_fig1a_minimal_cost);
    ("fig1a all strategies minimal (Ex. 10)", `Quick,
     test_fig1a_strategies_all_minimal);
    ("fig1a |G'| counts", `Quick, test_fig1a_gprime_counts);
    ("fig1a subsets (Ex. 9)", `Quick, test_fig1a_subsets_tried);
    ("mapper without subsets", `Quick, test_mapper_without_subsets);
    ("mapper too many logical", `Quick, test_mapper_too_many_logical);
    ("mapper empty circuit", `Quick, test_mapper_empty_circuit);
    ("mapper no cnots", `Quick, test_mapper_no_cnots);
    ("mapper rejects swaps", `Quick, test_mapper_rejects_swaps);
    ("mapped output compliant", `Quick, test_mapper_output_is_compliant);
    ("initial/final mappings injective", `Quick,
     test_mapper_initial_final_consistent);
    mapper_end_to_end;
    symmetry_preserves_optimum;
    one_solve_per_class ~count:300
      ~name:"one solve per class = least answer over every subset"
      ~qubits:(2, 4) ~cnots:(3, 6)
      [
        ("qx4", Devices.qx4);
        ("qx2", Devices.qx2);
        ("ring5", Devices.ring 5);
        ("star5", Devices.star 5);
      ];
    (* On the four small devices above, a merge by degrees alone changes
       no class.  QX5 at 4 qubits has 65 connected subsets in 11 classes,
       several of them non-isomorphic with equal degrees, and 7 maximal
       classes; there a dominated class can come before the class that
       contains it, so a tie may go to the higher index. *)
    one_solve_per_class ~count:20
      ~name:"one solve per class on qx5 (65 subsets, 11 classes)"
      ~qubits:(4, 4) ~cnots:(3, 4)
      [ ("qx5", Devices.qx5) ];
    ("one solve per class on qx5's degree twins", `Quick,
     test_qx5_degree_twins);
    strategies_dominate_minimal;
  ]
