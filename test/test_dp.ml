(* Tests for the permutation DP ([Dp_exact]) and the warm-start seed the
   mapper derives from it.  The differential compares the DP with the SAT
   mapper run cold: the two share no derivation beyond the instance
   record, so agreement checks the encoding against an independent
   oracle. *)

module Strategy = Qxm_exact.Strategy
module Encoding = Qxm_exact.Encoding
module Dp_exact = Qxm_exact.Dp_exact
module Mapper = Qxm_exact.Mapper
module Minimize = Qxm_opt.Minimize
module Cnf = Qxm_encode.Cnf
module Circuit = Qxm_circuit.Circuit
module Coupling = Qxm_arch.Coupling
module Subsets = Qxm_arch.Subsets
module Devices = Qxm_arch.Devices
module Examples = Qxm_benchmarks.Examples
module Generator = Qxm_benchmarks.Generator
module Suite = Qxm_benchmarks.Suite
module Metrics = Qxm_obs.Metrics

(* The instances [Mapper.run] races for a circuit: one per connected
   n-qubit subset, or the whole device with dummies when subsets are off
   (or n = m). *)
let instances ~strategy ~use_subsets ~arch circuit =
  let n = Circuit.num_qubits circuit in
  let cnots = Circuit.cnots circuit in
  let spots = Strategy.spots strategy cnots in
  let archs =
    if use_subsets && n < Coupling.num_qubits arch then
      List.map
        (fun subset -> fst (Coupling.induce arch subset))
        (Subsets.connected arch n)
    else [ arch ]
  in
  List.map
    (fun a ->
      {
        Encoding.arch = a;
        num_logical = n;
        cnots = Array.of_list cnots;
        spots;
      })
    archs

(* The routing's literals must be satisfiable as assumptions on the
   instance's own encoding, and pin the model's cost to the DP's. *)
let routing_encodable ~costs ~symmetry inst (r : Dp_exact.routing) =
  let solver = Qxm_sat.Solver.create () in
  let cnf = Cnf.create solver in
  let built = Encoding.build ~costs ~symmetry cnf inst in
  let assumptions =
    Encoding.routing_assumptions built ~layouts:r.layouts ~flips:r.flips
  in
  match Qxm_sat.Solver.solve ~assumptions solver with
  | Qxm_sat.Solver.Sat ->
      Minimize.cost_of_model (Encoding.objective built)
        (Qxm_sat.Solver.model solver)
      = r.cost
  | _ -> false

let devices =
  [
    ("qx4", Devices.qx4);
    ("qx2", Devices.qx2);
    ("line4", Devices.line 4);
    ("ring5", Devices.ring 5);
    ("star5", Devices.star 5);
  ]

let cost_models =
  [
    Encoding.paper_costs;
    { Encoding.swap_weight = 1; flip_weight = 1 };
    { Encoding.swap_weight = 1; flip_weight = 0 };
  ]

let differential_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* qubits = int_range 2 4 in
    let* cnots = int_range 5 8 in
    let* device = oneofl devices in
    let* strategy = oneofl Strategy.all in
    let* costs = oneofl cost_models in
    let* use_subsets = bool in
    return (seed, qubits, cnots, device, strategy, costs, use_subsets))

let print_case (seed, qubits, cnots, (dev, _), strategy, costs, use_subsets) =
  Printf.sprintf "seed=%d qubits=%d cnots=%d %s %s costs={%d,%d} subsets=%b"
    seed qubits cnots dev (Strategy.name strategy) costs.Encoding.swap_weight
    costs.Encoding.flip_weight use_subsets

let test_differential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~print:print_case
       ~name:"differential: DP optimum = cold SAT mapper" differential_gen
       (fun (seed, qubits, cnots, (_, arch), strategy, costs, use_subsets) ->
         let circuit =
           Generator.random_circuit ~seed ~qubits ~cnots ~singles:2
         in
         let symmetry = strategy = Strategy.Minimal in
         let routed =
           List.filter_map
             (fun inst ->
               Option.map
                 (fun r -> (inst, r))
                 (Dp_exact.solve ~costs ~symmetry inst))
             (instances ~strategy ~use_subsets ~arch circuit)
         in
         let dp =
           List.fold_left
             (fun acc (_, (r : Dp_exact.routing)) ->
               Some (match acc with Some c -> min c r.cost | None -> r.cost))
             None routed
         in
         let options =
           {
             Mapper.default with
             strategy;
             costs;
             use_subsets;
             warm_start = false;
           }
         in
         let sat =
           match Mapper.run ~options ~arch circuit with
           | Ok r when r.Mapper.optimal -> Some r.Mapper.objective_cost
           | Ok _ -> QCheck2.Test.fail_report "unbudgeted run not optimal"
           | Error (Mapper.Unmappable _) -> None
           | Error f ->
               QCheck2.Test.fail_reportf "mapper failed: %a" Mapper.pp_failure
                 f
         in
         if dp <> sat then
           QCheck2.Test.fail_reportf "DP %s, SAT %s"
             (Option.fold ~none:"no mapping" ~some:string_of_int dp)
             (Option.fold ~none:"no mapping" ~some:string_of_int sat);
         List.for_all
           (fun (inst, r) -> routing_encodable ~costs ~symmetry inst r)
           routed))

(* Fig. 1(a) on the whole of QX4, dummies included: the DP finds Ex. 7's
   F = 4, with a routing the encoding accepts. *)
let test_fig1a () =
  let inst =
    match
      instances ~strategy:Strategy.Minimal ~use_subsets:false ~arch:Devices.qx4
        Examples.fig1a
    with
    | [ inst ] -> inst
    | _ -> Alcotest.fail "expected one instance"
  in
  match Dp_exact.solve ~symmetry:true inst with
  | None -> Alcotest.fail "fig1a has a mapping"
  | Some r ->
      Alcotest.(check int) "F*" 4 r.cost;
      Alcotest.(check int) "one layout per gate"
        (List.length (Circuit.cnots Examples.fig1a))
        (Array.length r.layouts);
      Alcotest.(check bool) "encodable" true
        (routing_encodable ~costs:Encoding.paper_costs ~symmetry:true inst r)

(* Three CNOTs pairwise between three qubits in one segment cannot sit on
   a line: no layout makes all three pairs adjacent. *)
let test_no_mapping () =
  let inst =
    {
      Encoding.arch = Devices.line 3;
      num_logical = 3;
      cnots = [| (0, 1); (1, 2); (0, 2) |];
      spots = [];
    }
  in
  Alcotest.(check bool) "no routing" true (Dp_exact.solve inst = None);
  Alcotest.(check bool) "with a spot there is one" true
    (Dp_exact.solve { inst with spots = [ 2 ] } <> None)

let seed_rejections () =
  Metrics.count (Metrics.snapshot ()) "minimize.seed_rejected"

let row name =
  match Suite.by_name name with
  | Some e -> e.Suite.circuit
  | None -> Alcotest.failf "no Table-1 row %s" name

(* Symmetric devices make the lex-leader clauses live: a seed whose
   initial layout were not the lex leader of its orbit would be refuted
   and fall back to a cold solve.  None may be, on these devices or on
   the QX4 rows the minimal benchmark maps. *)
let test_seed_never_rejected () =
  let check label arch circuit =
    if Circuit.num_qubits circuit <= Coupling.num_qubits arch then begin
      let before = seed_rejections () in
      (match Mapper.run ~arch circuit with
      | Ok r ->
          Alcotest.(check bool) (label ^ ": optimal") true r.Mapper.optimal
      | Error f -> Alcotest.failf "%s: %a" label Mapper.pp_failure f);
      Alcotest.(check int) (label ^ ": seed rejections") 0
        (seed_rejections () - before)
    end
  in
  List.iter
    (fun (cname, circuit) ->
      List.iter
        (fun (dname, arch) -> check (cname ^ "@" ^ dname) arch circuit)
        [
          ("ring4", Devices.ring 4);
          ("ring5", Devices.ring 5);
          ("star5", Devices.star 5);
        ])
    [
      ("fig1a", Examples.fig1a);
      ("ham3_102", row "ham3_102");
      ("4gt11_84", row "4gt11_84");
    ];
  List.iter
    (fun name -> check (name ^ "@qx4") Devices.qx4 (row name))
    [ "3_17_13"; "ex-1_166"; "ham3_102"; "miller_11"; "4gt11_84" ]

(* The anytime contract on rows no budget here proves: 100 conflicts per
   solve are enough to land on the DP-seeded optimum, though not to
   refute anything below it. *)
let test_anytime_hard_rows () =
  List.iter
    (fun (name, expected) ->
      let options = { Mapper.default with conflict_limit = 100 } in
      match Mapper.run ~options ~arch:Devices.qx4 (row name) with
      | Ok r ->
          Alcotest.(check int) (name ^ ": f_cost") expected r.Mapper.f_cost;
          Alcotest.(check bool) (name ^ ": not proven") false r.Mapper.optimal
      | Error f -> Alcotest.failf "%s: %a" name Mapper.pp_failure f)
    [ ("4gt13_92", 55); ("qe_qft_5", 68) ]

let suite =
  [
    test_differential;
    Alcotest.test_case "fig1a optimum and encodable routing" `Quick test_fig1a;
    Alcotest.test_case "no mapping without a spot" `Quick test_no_mapping;
    Alcotest.test_case "seed: never rejected on symmetric devices" `Quick
      test_seed_never_rejected;
    Alcotest.test_case "anytime: conflict limit 100 keeps the seed" `Quick
      test_anytime_hard_rows;
  ]
