(* Benchmark harness.

   Part 1 — experiment regeneration: reruns the paper's evaluation
   artefacts in a bounded form suitable for a default `dune exec
   bench/main.exe`: every figure (1–5, with the Fig. 5 assertion F = 4)
   and a Table 1 slice over the quick benchmarks, printing the same
   row structure as the paper.  The complete 25-row table with generous
   budgets is `bin/table1.exe` (see EXPERIMENTS.md for its output).

   Part 2 — Bechamel micro-benchmarks, one Test.make per reproduced
   artefact plus the ablations called out in DESIGN.md:
     table1/*    an exact strategy mapping and the heuristic baseline
     fig5/*      the running example end to end
     ablation/*  AMO encodings (Eq. 1)
     substrate/* SAT solver, swaps(π) table, unitary simulation *)

open Bechamel
open Toolkit
module Mapper = Qxm_exact.Mapper
module Strategy = Qxm_exact.Strategy
module Suite = Qxm_benchmarks.Suite
module Examples = Qxm_benchmarks.Examples
module Circuit = Qxm_circuit.Circuit
module Unitary = Qxm_circuit.Unitary
module Devices = Qxm_arch.Devices
module Stochastic = Qxm_heuristic.Stochastic_swap
module Solver = Qxm_sat.Solver
module Lit = Qxm_sat.Lit
module Cnf = Qxm_encode.Cnf
module Amo = Qxm_encode.Amo
module Timeseries = Qxm_obs.Timeseries
module Flight = Qxm_obs.Flight

(* ------------------------------------------------------------------ *)
(* Part 1: regeneration                                                 *)
(* ------------------------------------------------------------------ *)

let regenerate_figures () =
  print_endline "== figures (see also bin/figures.exe) ==";
  (* Fig. 5 / Ex. 7: the minimal mapping of Fig. 1a on QX4 costs 4. *)
  (match Mapper.run ~arch:Devices.qx4 Examples.fig1a with
  | Ok r ->
      assert (r.f_cost = 4);
      assert (r.verified = Some true);
      Printf.printf
        "fig5: minimal mapping of Fig. 1a onto QX4: F = %d, verified \
         (paper: F = 4)\n"
        r.f_cost
  | Error e -> Format.printf "fig5 FAILED: %a@." Mapper.pp_failure e);
  (* Ex. 9: subset pruning counts *)
  Printf.printf "fig4/ex9: 4-subsets of QX4: %d total, %d connected \
                 (paper: 5 and 4)\n"
    (Qxm_arch.Subsets.count_all Devices.qx4 4)
    (Qxm_arch.Subsets.count_connected Devices.qx4 4);
  print_newline ()

let regenerate_table1_slice () =
  print_endline
    "== Table 1 (quick slice: benchmarks with <= 14 CNOTs, 30 s budget; \
     full table: bin/table1.exe) ==";
  Printf.printf "%-14s %2s %9s | %9s | %9s %9s %9s | %9s\n" "benchmark" "n"
    "orig" "min" "disjoint" "odd" "triangle" "ibm-style";
  List.iter
    (fun (e : Suite.entry) ->
      let run strategy =
        let options =
          { Mapper.default with strategy; timeout = Some 30.0 }
        in
        match Mapper.run ~options ~arch:Devices.qx4 e.circuit with
        | Ok r ->
            assert (r.verified = Some true);
            Printf.sprintf "%4d%s" r.total_gates
              (if r.optimal then "    " else " ~  ")
        | Error _ -> "  t/o    "
      in
      let heur = Stochastic.run_best ~times:5 ~arch:Devices.qx4 e.circuit in
      Printf.printf "%-14s %2d %4d+%-4d | %9s | %9s %9s %9s | %4d\n" e.name
        e.paper.n
        (Circuit.count_singles e.circuit)
        (Circuit.count_cnots e.circuit)
        (run Strategy.Minimal)
        (run Strategy.Disjoint_qubits)
        (run Strategy.Odd_gates)
        (run Strategy.Qubit_triangle)
        heur.total_gates)
    (List.filter (fun (e : Suite.entry) -> e.paper.cnots <= 14) (Suite.all ()));
  print_newline ()

(* Machine-readable runs, one JSON record per (benchmark, jobs) pair.
   CI archives the files (BENCH.json, BENCH-hard.json) so speedup and
   determinism can be tracked across commits.

   - "quick": benchmarks with <= 14 CNOTs, 30 s budget, mapped once
     sequentially and once with the recommended worker count;
     [-j1]/[-jN] pairs that completed within budget ([optimal] true)
     must agree on every cost field — rows cut off by the deadline are
     anytime incumbents and inherently timing-dependent at any worker
     count.
   - "hard": the seven Table-1 rows the minimal strategy historically
     could not prove within generous budgets, 90 s per row with the
     full incremental machinery (parallel workers, symmetry breaking).
     Every record carries an explicit "timed_out" boolean — true iff
     the budget expired before the proof closed — so the gate
     ([qxm_prof BASE NEW]) can flag rows that newly finish
     (improvement) or newly time out (regression).  A row that timed
     out before any mapping still records the solver counters it
     spent. *)

let verified_json = function
  | Some true -> "true"
  | Some false -> "false"
  | None -> "null"

let hard_names =
  [
    "4gt11_82"; "4gt13_92"; "alu-v1_28"; "alu-v1_29"; "alu-v3_34"; "qe_qft_4";
    "qe_qft_5";
  ]

let emit_json ~suite ?flight_prefix file =
  let jpar = max 2 (Domain.recommended_domain_count ()) in
  let entries, budget, jobs_list =
    match suite with
    | "hard" -> (List.filter_map Suite.by_name hard_names, 90.0, [ jpar ])
    | _ ->
        ( List.filter
            (fun (e : Suite.entry) -> e.paper.cnots <= 14)
            (Suite.all ()),
          30.0,
          [ 1; jpar ] )
  in
  let suite = if suite = "hard" then "hard" else "quick" in
  let records = ref [] in
  List.iter
    (fun (e : Suite.entry) ->
      List.iter
        (fun jobs ->
          let options =
            {
              Mapper.default with
              strategy = Strategy.Minimal;
              timeout = Some budget;
              jobs;
            }
          in
          (* Search telemetry rides along at its default cadence: the
             quick-suite wall-clock gate therefore measures the solver
             with sampling on, which is how production runs it.  Each
             row starts a fresh sample ring; with --flight-record, a
             row that blows its budget leaves a dump for qxm_prof. *)
          Timeseries.enable ();
          Option.iter
            (fun prefix ->
              Flight.enable
                ~path:(Printf.sprintf "%s-%s.flight.ndjson" prefix e.name)
                ())
            flight_prefix;
          let t0 = Unix.gettimeofday () in
          (* the strategy is recorded as actually used (after
             defaulting), not as requested, so a record is sufficient to
             reproduce its own run *)
          let common wall rest =
            Printf.sprintf
              "  {\"suite\": \"%s\", \"benchmark\": \"%s\", \"device\": \
               \"qx4\", \"strategy\": \"%s\", \"jobs\": %d, \
               \"wall_s\": %.3f, %s}"
              suite e.name
              (Strategy.name options.strategy)
              jobs wall rest
          in
          let record, timed_out =
            match Mapper.run ~options ~arch:Devices.qx4 e.circuit with
            | Ok r ->
                let wall = Unix.gettimeofday () -. t0 in
                let st = r.sat_stats in
                (* flat per-stage wall-clock fields, so the gate
                   (qxm_prof BASE NEW) can attribute a regression to the
                   stage that grew *)
                let stage_fields =
                  String.concat ", "
                    (List.map
                       (fun (name, s) ->
                         Printf.sprintf "\"stage_%s_s\": %.3f" name s)
                       r.phase_seconds)
                in
                (* propagation throughput over the solve stage (falling
                   back to total wall time when the stage breakdown is
                   missing), and the allocation counters the arena work
                   is gated on: minor-heap words per propagation should
                   stay near zero *)
                let solve_s =
                  match List.assoc_opt "solve" r.phase_seconds with
                  | Some s when s > 0.0 -> s
                  | _ -> wall
                in
                let props_per_sec =
                  if solve_s > 0.0 then
                    float_of_int st.Solver.propagations /. solve_s
                  else 0.0
                in
                ( common wall
                  (Printf.sprintf
                     "\"total_gates\": %d, \"f_cost\": %d, \
                      \"objective_cost\": %d, \"optimal\": %b, \"timed_out\": \
                      %b, \"verified\": %s, \"solves\": %d, \"workers\": %d, \
                      \"pruned_by_incumbent\": %d, %s, \"conflicts\": %d, \
                      \"propagations\": %d, \"binary_propagations\": %d, \
                      \"props_per_sec\": %.0f, \"minor_words\": %d, \
                      \"arena_collections\": %d, \"arena_relocations\": %d, \
                      \"minimized_lits\": %d, \"subsumed_clauses\": %d, \
                      \"vivified_clauses\": %d, \"glue\": [%d, %d, %d, %d, \
                      %d]"
                     r.total_gates r.f_cost r.objective_cost r.optimal
                     (not r.optimal) (verified_json r.verified) r.solves
                     r.workers
                     r.pruned_by_incumbent stage_fields st.Solver.conflicts
                     st.Solver.propagations st.Solver.binary_propagations
                     props_per_sec st.Solver.minor_words
                     st.Solver.arena_collections st.Solver.arena_relocations
                     st.Solver.minimized_lits st.Solver.subsumed_clauses
                     st.Solver.vivified_clauses st.Solver.glue_1
                     st.Solver.glue_2 st.Solver.glue_3_4 st.Solver.glue_5_8
                     st.Solver.glue_9_plus),
                  not r.optimal )
            | Error (Mapper.Timeout st) ->
                ( common
                    (Unix.gettimeofday () -. t0)
                    (Printf.sprintf
                       "\"failed\": true, \"timed_out\": true, \"conflicts\": \
                        %d, \"propagations\": %d, \"binary_propagations\": \
                        %d, \"minor_words\": %d, \"arena_collections\": %d"
                       st.Solver.conflicts st.Solver.propagations
                       st.Solver.binary_propagations st.Solver.minor_words
                       st.Solver.arena_collections),
                  true )
            | Error _ ->
                ( common
                    (Unix.gettimeofday () -. t0)
                    "\"failed\": true, \"timed_out\": true",
                  true )
          in
          (match flight_prefix with
          | None -> ()
          | Some _ ->
              if timed_out then
                ignore (Flight.dump ~reason:("timed_out " ^ e.name) ());
              Flight.disable ());
          records := record :: !records)
        jobs_list)
    entries;
  let oc = open_out file in
  Printf.fprintf oc "[\n%s\n]\n" (String.concat ",\n" (List.rev !records));
  close_out oc;
  Printf.printf "bench: wrote %d records (%s suite, jobs %s) to %s\n"
    (List.length !records) suite
    (String.concat "/" (List.map string_of_int jobs_list))
    file

(* ------------------------------------------------------------------ *)
(* Part 2: micro-benchmarks                                             *)
(* ------------------------------------------------------------------ *)

let exact_map ?(strategy = Strategy.Minimal) circuit () =
  let options = { Mapper.default with strategy; verify = false } in
  match Mapper.run ~options ~arch:Devices.qx4 circuit with
  | Ok r -> ignore r.f_cost
  | Error _ -> ()

let bench_exact name strategy =
  let entry = Option.get (Suite.by_name name) in
  Test.make ~name:(Printf.sprintf "exact-%s-%s" name (Strategy.name strategy))
    (Staged.stage (exact_map ~strategy entry.circuit))

let bench_heuristic =
  let entry = Option.get (Suite.by_name "ham3_102") in
  Test.make ~name:"heuristic-ham3_102"
    (Staged.stage (fun () ->
         ignore
           (Stochastic.run ~verify:false ~arch:Devices.qx4 entry.circuit)))

let bench_fig5 =
  Test.make ~name:"exact-fig1a-minimal"
    (Staged.stage (exact_map Examples.fig1a))

(* Ablation: the Eq. (1) AMO encoding choice, measured on a full mapping
   of the same circuit. *)
let bench_amo encoding name =
  let entry = Option.get (Suite.by_name "ex-1_166") in
  Test.make ~name:("amo-" ^ name)
    (Staged.stage (fun () ->
         let options =
           { Mapper.default with amo = encoding; verify = false }
         in
         ignore (Mapper.run ~options ~arch:Devices.qx4 entry.circuit)))

let bench_sat_php =
  Test.make ~name:"sat-pigeonhole-5"
    (Staged.stage (fun () ->
         let n = 5 in
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
               Solver.add_clause s
                 [ Lit.negate (v p1 h); Lit.negate (v p2 h) ]
             done
           done
         done;
         assert (Solver.solve s = Solver.Unsat)))

let bench_swap_table =
  Test.make ~name:"swaps-table-qx4"
    (Staged.stage (fun () ->
         ignore (Qxm_arch.Swap_count.compute Devices.qx4)))

let bench_unitary =
  Test.make ~name:"unitary-fig1a"
    (Staged.stage (fun () -> ignore (Unitary.unitary Examples.fig1a)))

let bench_sabre =
  let entry = Option.get (Suite.by_name "4gt11_84") in
  Test.make ~name:"heuristic-sabre-4gt11_84"
    (Staged.stage (fun () ->
         ignore
           (Qxm_heuristic.Sabre.run ~verify:false ~arch:Devices.qx4
              entry.circuit)))

let bench_optimize =
  let qft = Qxm_benchmarks.Algorithms.qft 5 in
  Test.make ~name:"peephole-qft5"
    (Staged.stage (fun () -> ignore (Qxm_circuit.Optimize.optimize qft)))

let all_micro =
  Test.make_grouped ~name:"qxm"
    [
      Test.make_grouped ~name:"table1"
        [
          bench_exact "ex-1_166" Strategy.Minimal;
          bench_exact "ex-1_166" Strategy.Qubit_triangle;
          bench_exact "4gt11_84" Strategy.Odd_gates;
          bench_heuristic;
          bench_sabre;
        ];
      Test.make_grouped ~name:"fig5" [ bench_fig5 ];
      Test.make_grouped ~name:"ablation"
        [
          bench_amo Amo.Pairwise "pairwise";
          bench_amo Amo.Sequential "sequential";
          bench_amo Amo.Commander "commander";
        ];
      Test.make_grouped ~name:"substrate"
        [ bench_sat_php; bench_swap_table; bench_unitary; bench_optimize ];
    ]

let run_micro () =
  print_endline "== micro-benchmarks (Bechamel, ns per run) ==";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances all_micro in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some [ e ] -> e
        | _ -> nan
      in
      Printf.printf "%-40s %12.0f ns/run  (%8.3f ms)\n" name ns (ns /. 1e6))
    (List.sort compare rows)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let micro_only = List.mem "--micro-only" args in
  let skip_micro = List.mem "--no-micro" args in
  let json =
    let rec find = function
      | [] -> None
      | "--json" :: next :: _
        when String.length next < 2 || String.sub next 0 2 <> "--" ->
          Some next
      | "--json" :: _ -> Some "BENCH.json"
      | _ :: rest -> find rest
    in
    find args
  in
  let suite =
    let rec find = function
      | [] -> "quick"
      | "--suite" :: s :: _ -> s
      | _ :: rest -> find rest
    in
    find args
  in
  let flight_prefix =
    let rec find = function
      | [] -> None
      | "--flight-record" :: p :: _ -> Some p
      | _ :: rest -> find rest
    in
    find args
  in
  (* The hard suite is a dedicated long-budget run: skip the
     regeneration pass and the micro-benchmarks unless asked for. *)
  if (not micro_only) && suite <> "hard" then begin
    regenerate_figures ();
    regenerate_table1_slice ()
  end;
  Option.iter (emit_json ~suite ?flight_prefix) json;
  if (not skip_micro) && suite <> "hard" then run_micro ()
