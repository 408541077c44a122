(* Regenerate Table 1 of the paper: for every benchmark, the minimal
   mapping cost (Sec. 3), the subset method (Sec. 4.1), the three
   permutation-restriction strategies (Sec. 4.2) and the IBM-style
   heuristic baseline, with Δmin and runtimes.

   Columns mirror the paper; absolute runtimes differ (different machine
   and reasoning engine) but their ordering should match. *)

module Mapper = Qxm_exact.Mapper
module Strategy = Qxm_exact.Strategy
module Suite = Qxm_benchmarks.Suite
module Circuit = Qxm_circuit.Circuit
module Stochastic = Qxm_heuristic.Stochastic_swap
module Validate = Qxm_svc.Validate

type cell = {
  cost : int option; (* total gates of mapped circuit; None = timeout *)
  time : float;
  gprime : int option;
  optimal : bool;
  solves : int;
  workers : int;
  pruned : int;
}

(* [?cert] = (device_name, output path): run with witness capture and,
   when the row completes with a proven optimum, drop a QXMCERT1
   certificate for offline re-validation with qxm_audit. *)
let run_exact ~arch ~timeout ~jobs ~strategy ~use_subsets ?upper_bound ?cert
    circuit =
  let options =
    {
      Mapper.default with
      strategy;
      use_subsets;
      timeout = Some timeout;
      verify = true;
      upper_bound;
      jobs;
      certificate = cert <> None;
    }
  in
  let t0 = Unix.gettimeofday () in
  match Mapper.run ~options ~arch circuit with
  | Ok r ->
      (match r.verified with
      | Some false ->
          prerr_endline "FATAL: mapped circuit failed unitary verification";
          exit 1
      | _ -> ());
      (match cert with
      | Some (device_name, path) when r.optimal -> (
          match
            Qxm_audit.Emit.of_report ~device_name ~arch ~circuit ~options r
          with
          | Ok c ->
              let oc = open_out path in
              output_string oc (Qxm_audit.Certificate.to_string c);
              output_char oc '\n';
              close_out oc
          | Error m -> Printf.eprintf "certificate %s not emitted: %s\n" path m)
      | _ -> ());
      {
        cost = Some r.total_gates;
        time = Unix.gettimeofday () -. t0;
        gprime = Some r.reported_gprime;
        optimal = r.optimal;
        solves = r.solves;
        workers = r.workers;
        pruned = r.pruned_by_incumbent;
      }
  | Error _ ->
      {
        cost = None;
        time = Unix.gettimeofday () -. t0;
        gprime = None;
        optimal = false;
        solves = 0;
        workers = 1;
        pruned = 0;
      }

(* Minimal JSON emitter — records are flat, so strings/ints/floats/bools
   cover everything and no dependency is needed. *)
let json_cell name (c : cell) =
  Printf.sprintf
    "\"%s\": {\"cost\": %s, \"time_s\": %.3f, \"optimal\": %b, \"solves\": \
     %d, \"workers\": %d, \"pruned_by_incumbent\": %d}"
    name
    (match c.cost with Some v -> string_of_int v | None -> "null")
    c.time c.optimal c.solves c.workers c.pruned

(* a trailing ~ marks a best-found-but-not-proven-minimal cell *)
let pp_cost fmt (c, cmin, optimal) =
  match (c, cmin) with
  | None, _ -> Format.fprintf fmt "   t/o    "
  | Some c, Some m ->
      Format.fprintf fmt "%4d (%+d)%s" c (c - m) (if optimal then " " else "~")
  | Some c, None -> Format.fprintf fmt "%4d ( ?)%s" c (if optimal then " " else "~")

(* Numeric flags go through Qxm_svc.Validate, like qxmap's and qxmapd's:
   a zero, negative or malformed value dies with one line (exit 2)
   before the table header is printed. *)
let checked parse r =
  Arg.String
    (fun s ->
      match parse s with
      | Ok v -> r := v
      | Error e ->
          prerr_endline e;
          exit 2)

let () =
  let timeout = ref 600.0 in
  let which = ref "all" in
  let csv = ref None in
  let json = ref None in
  let device = ref "qx4" in
  let times = ref 5 in
  let jobs = ref (Domain.recommended_domain_count ()) in
  let certdir = ref None in
  let sanitize = ref false in
  let spec =
    [
      ("--timeout",
       checked (Validate.parse_pos_float ~flag:"--timeout" ~unit:"seconds")
         timeout,
       "<s> per-configuration budget");
      ("--benchmarks", Arg.Set_string which,
       "all|small|<name,name,...> benchmark selection");
      ("--csv", Arg.String (fun f -> csv := Some f), "<file> also write CSV");
      ("--json", Arg.String (fun f -> json := Some f),
       "<file> also write per-benchmark JSON records");
      ("--device", Arg.Set_string device, "device name (default qx4)");
      ("--heuristic-runs",
       checked
         (Validate.parse_pos_int ~flag:"--heuristic-runs" ~unit:"repetitions")
         times,
       "<n> heuristic repetitions");
      ("-j",
       checked (Validate.parse_pos_int ~flag:"-j" ~unit:"worker domains") jobs,
       "<n> worker domains for the mapping engine (1 = sequential; \
        default: recommended domain count)");
      ("--certificates", Arg.String (fun d -> certdir := Some d),
       "<dir> emit a QXMCERT1 optimality certificate per proven-minimal \
        row of the minimal-strategy columns (audit with qxm_audit)");
      ("--sanitize", Arg.Set sanitize,
       " audit solver invariants (trail, watchers, heap, clause arena) \
        before and after every solve; any violation aborts");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "table1 [options] -- regenerate Table 1";
  if !sanitize then Qxm_sat.Solver.set_sanitize_all true;
  let arch =
    match Qxm_arch.Devices.by_name !device with
    | Some a -> a
    | None ->
        Printf.eprintf "unknown device %s\n" !device;
        exit 2
  in
  let entries =
    match !which with
    | "all" -> Suite.all ()
    | "small" -> Suite.small ()
    | names ->
        String.split_on_char ',' names
        |> List.map (fun n ->
               match Suite.by_name (String.trim n) with
               | Some e -> e
               | None ->
                   Printf.eprintf "unknown benchmark %s\n" n;
                   exit 2)
  in
  Option.iter
    (fun d ->
      try Unix.mkdir d 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    !certdir;
  let cert_for name tag =
    Option.map
      (fun d ->
        (!device, Filename.concat d (Printf.sprintf "%s.%s.cert.json" name tag)))
      !certdir
  in
  let csv_oc = Option.map open_out !csv in
  let json_records = ref [] in
  Option.iter
    (fun oc ->
      output_string oc
        "name,n,original,c_min,t_min,c_sub,t_sub,gp_dis,c_dis,t_dis,gp_odd,c_odd,t_odd,gp_tri,c_tri,t_tri,c_ibm,paper_c_min,paper_c_ibm\n")
    csv_oc;
  Format.printf
    "%-12s %2s %9s | %9s %7s | %9s %7s | %4s %9s %7s | %4s %9s %7s | %4s %9s %7s | %9s@."
    "benchmark" "n" "orig" "min" "t[s]" "subset" "t[s]" "|G'|" "disjoint"
    "t[s]" "|G'|" "odd" "t[s]" "|G'|" "triangle" "t[s]" "ibm-style";
  let sum_min = ref 0 and sum_ibm = ref 0 and sum_orig = ref 0 in
  let sum_fmin = ref 0 and sum_fibm = ref 0 in
  let counted = ref 0 in
  List.iter
    (fun (e : Suite.entry) ->
      let circuit = e.circuit in
      let orig = Circuit.count_singles circuit + Circuit.count_cnots circuit in
      let n = Circuit.num_qubits circuit in
      let m = Qxm_arch.Coupling.num_qubits arch in
      let t0 = Unix.gettimeofday () in
      let ibm = Stochastic.run_best ~times:!times ~arch circuit in
      let t_ibm = Unix.gettimeofday () -. t0 in
      (* Warm-start bounds that provably preserve minimality (DESIGN.md):
         - a solution of any restricted strategy allows permutations at a
           subset of the Minimal spots, so its F bounds the minimum, and
           it lives on one connected subset, so it also bounds the
           Sec. 4.1 min-over-subsets;
         - the stochastic heuristic inserts SWaps only at disjoint-layer
           boundaries, so on the full device its F bounds both the
           Minimal and the Disjoint_qubits optima. *)
      let f_of (c : cell) = Option.map (fun g -> g - orig) c.cost in
      let min_bound a b =
        match (a, b) with
        | Some x, Some y -> Some (min x y)
        | Some x, None | None, Some x -> Some x
        | None, None -> None
      in
      let ctri =
        run_exact ~arch ~timeout:!timeout ~jobs:!jobs ~strategy:Strategy.Qubit_triangle
          ~use_subsets:true circuit
      in
      let codd =
        run_exact ~arch ~timeout:!timeout ~jobs:!jobs ~strategy:Strategy.Odd_gates
          ~use_subsets:true circuit
      in
      let cdis =
        run_exact ~arch ~timeout:!timeout ~jobs:!jobs ~strategy:Strategy.Disjoint_qubits
          ~use_subsets:true
          ?upper_bound:(if n = m then Some ibm.f_cost else None)
          circuit
      in
      let strategy_bound =
        min_bound (f_of ctri) (min_bound (f_of codd) (f_of cdis))
      in
      let cmin, csub =
        if n = m then begin
          (* the Sec. 4.1 method degenerates to the full instance *)
          let c =
            run_exact ~arch ~timeout:!timeout ~jobs:!jobs ~strategy:Strategy.Minimal
              ~use_subsets:false
              ?upper_bound:(min_bound (Some ibm.f_cost) strategy_bound)
              ?cert:(cert_for e.name "min") circuit
          in
          (c, c)
        end
        else begin
          let csub =
            run_exact ~arch ~timeout:!timeout ~jobs:!jobs ~strategy:Strategy.Minimal
              ~use_subsets:true ?upper_bound:strategy_bound
              ?cert:(cert_for e.name "sub") circuit
          in
          let bound =
            min_bound (f_of csub)
              (min_bound (Some ibm.f_cost) strategy_bound)
          in
          let cmin =
            run_exact ~arch ~timeout:!timeout ~jobs:!jobs ~strategy:Strategy.Minimal
              ~use_subsets:false ?upper_bound:bound
              ?cert:(cert_for e.name "min") circuit
          in
          (cmin, csub)
        end
      in
      (match ibm.verified with
      | Some false ->
          prerr_endline "FATAL: heuristic circuit failed verification";
          exit 1
      | _ -> ());
      (* the reference minimum: prefer the full-minimal column, else the
         subset column (which preserved minimality on every paper row) *)
      let reference =
        match (cmin.cost, csub.cost) with
        | Some a, Some b -> Some (min a b)
        | Some a, None -> Some a
        | None, b -> b
      in
      (match reference with
      | Some r ->
          incr counted;
          sum_orig := !sum_orig + orig;
          sum_min := !sum_min + r;
          sum_ibm := !sum_ibm + ibm.total_gates;
          sum_fmin := !sum_fmin + (r - orig);
          sum_fibm := !sum_fibm + (ibm.total_gates - orig)
      | None -> ());
      Format.printf
        "%-12s %2d %4d+%-4d | %a %7.1f | %a %7.1f | %4s %a %7.1f | %4s %a %7.1f | %4s %a %7.1f | %a@."
        e.name e.paper.n
        (Circuit.count_singles circuit)
        (Circuit.count_cnots circuit)
        pp_cost (cmin.cost, reference, cmin.optimal) cmin.time
        pp_cost (csub.cost, reference, csub.optimal) csub.time
        (match cdis.gprime with Some g -> string_of_int g | None -> "-")
        pp_cost (cdis.cost, reference, cdis.optimal) cdis.time
        (match codd.gprime with Some g -> string_of_int g | None -> "-")
        pp_cost (codd.cost, reference, codd.optimal) codd.time
        (match ctri.gprime with Some g -> string_of_int g | None -> "-")
        pp_cost (ctri.cost, reference, ctri.optimal) ctri.time
        pp_cost (Some ibm.total_gates, reference, true);
      ignore t_ibm;
      Option.iter
        (fun oc ->
          let f = function None -> "" | Some c -> string_of_int c in
          Printf.fprintf oc "%s,%d,%d,%s,%.2f,%s,%.2f,%s,%s,%.2f,%s,%s,%.2f,%s,%s,%.2f,%d,%d,%d\n%!"
            e.name e.paper.n orig (f cmin.cost) cmin.time (f csub.cost)
            csub.time
            (match cdis.gprime with Some g -> string_of_int g | None -> "")
            (f cdis.cost) cdis.time
            (match codd.gprime with Some g -> string_of_int g | None -> "")
            (f codd.cost) codd.time
            (match ctri.gprime with Some g -> string_of_int g | None -> "")
            (f ctri.cost) ctri.time ibm.total_gates e.paper.c_min
            e.paper.c_ibm)
        csv_oc;
      if !json <> None then
        json_records :=
          Printf.sprintf
            "  {\"benchmark\": \"%s\", \"device\": \"%s\", \"n\": %d, \
             \"original_gates\": %d, \"jobs\": %d, \"ibm_style_gates\": %d, \
             %s, %s, %s, %s, %s}"
            e.name !device n orig !jobs ibm.total_gates
            (json_cell "minimal" cmin)
            (json_cell "subset" csub)
            (json_cell "disjoint" cdis)
            (json_cell "odd" codd)
            (json_cell "triangle" ctri)
          :: !json_records)
    entries;
  Option.iter
    (fun file ->
      let oc = open_out file in
      Printf.fprintf oc "[\n%s\n]\n"
        (String.concat ",\n" (List.rev !json_records));
      close_out oc)
    !json;
  if !counted > 0 then begin
    let pct a b = 100.0 *. (float_of_int a /. float_of_int b -. 1.0) in
    Format.printf
      "@.summary over %d benchmarks:@.  total gates: ibm-style %d vs minimal %d  (+%.0f%% above minimum)@.  added gates (F): ibm-style %d vs minimal %d  (+%.0f%% above minimum)@."
      !counted !sum_ibm !sum_min
      (pct !sum_ibm !sum_min)
      !sum_fibm !sum_fmin
      (100.0
      *. ((float_of_int !sum_fibm /. float_of_int (max 1 !sum_fmin)) -. 1.0))
  end;
  Option.iter close_out csv_oc
