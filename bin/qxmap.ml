(* qxmap — command-line front end.

   Subcommands:
     map        exact SAT-based mapping (the paper's method)
     heuristic  stochastic-swap / SABRE baselines
     devices    list known coupling maps
     stats      show circuit statistics and layering info
     lint       static analysis of circuits and encodings *)

open Cmdliner
module Circuit = Qxm_circuit.Circuit
module Qasm = Qxm_circuit.Qasm
module Draw = Qxm_circuit.Draw
module Layers = Qxm_circuit.Layers
module Coupling = Qxm_arch.Coupling
module Devices = Qxm_arch.Devices
module Mapper = Qxm_exact.Mapper
module Strategy = Qxm_exact.Strategy
module Portfolio = Qxm_exact.Portfolio
module Encoding = Qxm_exact.Encoding
module Fault = Qxm_sat.Fault
module Solver = Qxm_sat.Solver
module Cnf = Qxm_encode.Cnf
module Suite = Qxm_benchmarks.Suite
module Diagnostic = Qxm_lint.Diagnostic
module Circuit_lint = Qxm_lint.Circuit_lint
module Cnf_lint = Qxm_lint.Cnf_lint
module Trace = Qxm_obs.Trace
module Metrics = Qxm_obs.Metrics
module Flight = Qxm_obs.Flight
module Validate = Qxm_svc.Validate
module Profile = Qxm_profile.Profile
module Sjson = Qxm_json.Sjson

(* Numeric flags funnel through Qxm_svc.Validate — the same checks the
   qxmapd request parser applies — so a zero, negative, NaN or infinite
   budget dies at the flag with one actionable line instead of reaching
   the solvers as a disabled deadline. *)
let pos_float_conv ~flag ~unit =
  let parse s =
    match Validate.parse_pos_float ~flag ~unit s with
    | Ok v -> Ok v
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun fmt v -> Format.fprintf fmt "%g" v)

let pos_int_conv ~flag ~unit =
  let parse s =
    match Validate.parse_pos_int ~flag ~unit s with
    | Ok v -> Ok v
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun fmt v -> Format.fprintf fmt "%d" v)

let device_conv =
  let parse s =
    match Devices.by_name s with
    | Some d -> Ok d
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown device %S (try: %s)" s
                (String.concat ", " Devices.names)))
  in
  Arg.conv (parse, fun fmt _ -> Format.fprintf fmt "<device>")

let strategy_conv =
  let parse s =
    match Strategy.of_string s with
    | Some st -> Ok st
    | None -> Error (`Msg (Printf.sprintf "unknown strategy %S" s))
  in
  Arg.conv (parse, fun fmt s -> Strategy.pp fmt s)

let input_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"INPUT.qasm" ~doc:"OpenQASM 2.0 input circuit.")

let device_arg =
  Arg.(
    value
    & opt device_conv Devices.qx4
    & info [ "d"; "device" ] ~docv:"DEVICE"
        ~doc:"Target architecture (qx2, qx4, qx5, tokyo, line<k>, …).")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"OUT.qasm"
        ~doc:"Write the mapped circuit as OpenQASM (default: stdout).")

let draw_arg =
  Arg.(value & flag & info [ "draw" ] ~doc:"Also print an ASCII diagram.")

let load path =
  try Qasm.parse_file path
  with Qasm.Parse_error { line; message } ->
    Printf.eprintf "%s:%d: %s\n" path line message;
    exit 2

(* Certificates record a device name for the reader's benefit; recover
   it from the coupling map (the edge list stays authoritative). *)
let device_name_of arch =
  match
    List.find_opt
      (fun n ->
        match Devices.by_name n with
        | Some d -> Coupling.equal d arch
        | None -> false)
      Devices.names
  with
  | Some n -> n
  | None -> "custom"

let write_certificate path build =
  match build () with
  | Ok cert ->
      let oc = open_out path in
      output_string oc (Qxm_audit.Certificate.to_string cert);
      output_char oc '\n';
      close_out oc;
      Printf.eprintf "certificate: %s\n" path
  | Error m ->
      Printf.eprintf "certificate: not emitted: %s\n" m;
      exit 1

let emit output circuit =
  match output with
  | None -> print_string (Qasm.to_string circuit)
  | Some path -> Qasm.write_file path circuit

let report_summary (r : Mapper.report) =
  Printf.eprintf
    "mapped: %d gates (overhead F = %d), %s%s\n"
    r.total_gates r.f_cost
    (if r.optimal then "provably minimal"
     else if r.dp_incumbent then "DP routing, not proven minimal"
     else "not proven minimal")
    (match r.verified with
    | Some true -> ", equivalence verified"
    | Some false -> ", VERIFICATION FAILED"
    | None -> "")

(* Aggregated solver counters (see doc/PERFORMANCE.md for how to read
   them), printed on stderr so the QASM stream on stdout stays clean. *)
let print_sat_stats (s : Solver.stats) =
  Printf.eprintf
    "solver: %d conflicts, %d decisions, %d propagations (%d binary), %d \
     restarts\n\
     solver: glue histogram 1:%d 2:%d 3-4:%d 5-8:%d 9+:%d\n\
     solver: %d literals minimized away\n\
     solver: %d arena collections, %d clauses relocated\n"
    s.conflicts s.decisions s.propagations s.binary_propagations s.restarts
    s.glue_1 s.glue_2 s.glue_3_4 s.glue_5_8 s.glue_9_plus s.minimized_lits
    s.arena_collections s.arena_relocations

(* -- machine-readable report ---------------------------------------------- *)

(* Everything qxmap prints on stdout in --json mode is exactly one
   object, so `qxmap map --json … | jq` always parses: all human-facing
   summaries, progress lines and diagnostics go to stderr. *)

let num_int i = Sjson.Num (float_of_int i)
let opt_bool = function None -> Sjson.Null | Some b -> Sjson.Bool b

let json_sat_stats stats =
  Sjson.Obj
    (List.map (fun (k, v) -> (k, num_int v)) (Solver.stats_counters stats))

(* The per-run fields folded from the call's trace events: seconds per
   mapper phase and the objective trajectory. *)
let json_run (u : Profile.run) =
  [
    ( "trajectory",
      Sjson.List
        (List.map
           (fun (t, c) -> Sjson.List [ Sjson.Num t; num_int c ])
           u.u_trajectory) );
    ( "phase_seconds",
      Sjson.Obj (List.map (fun (k, v) -> (k, Sjson.Num v)) u.u_phases) );
  ]

(* The common tail of both report shapes: QASM inline unless it went to
   a file. *)
let json_payload ~output elementary =
  match output with
  | Some path -> [ ("output", Sjson.Str path) ]
  | None -> [ ("qasm", Sjson.Str (Qasm.to_string elementary)) ]

let mapper_json ~input ~output ~run (r : Mapper.report) =
  Sjson.Obj
    ([
       ("mode", Sjson.Str "exact");
       ("input", Sjson.Str input);
       ("strategy", Sjson.Str r.strategy_name);
       ("f_cost", num_int r.f_cost);
       ("objective_cost", num_int r.objective_cost);
       ("total_gates", num_int r.total_gates);
       ("optimal", Sjson.Bool r.optimal);
       ("dp_incumbent", Sjson.Bool r.dp_incumbent);
       ("verified", opt_bool r.verified);
       ("runtime_s", Sjson.Num r.runtime);
       ("solves", num_int r.solves);
       ("subsets_tried", num_int r.subsets_tried);
       ("workers", num_int r.workers);
       ("pruned_by_incumbent", num_int r.pruned_by_incumbent);
     ]
    @ json_run run
    @ [ ("sat_stats", json_sat_stats r.sat_stats) ]
    @ json_payload ~output r.elementary)

let json_stages stages =
  Sjson.List
    (List.map
       (fun (s : Portfolio.stage) ->
         Sjson.Obj
           [
             ("stage", Sjson.Str s.stage);
             ("spent_s", Sjson.Num s.spent);
             ("solves", num_int s.solves);
             ("outcome", Sjson.Str s.outcome);
           ])
       stages)

let portfolio_json ~input ~output ~run (r : Portfolio.report) =
  Sjson.Obj
    ([
       ("mode", Sjson.Str "portfolio");
       ("input", Sjson.Str input);
       ("strategy", Sjson.Str r.strategy_name);
       ("f_cost", num_int r.f_cost);
       ("total_gates", num_int r.total_gates);
       ( "provenance",
         Sjson.Str (Portfolio.provenance_string r.provenance) );
       ("notes", Sjson.List (List.map (fun n -> Sjson.Str n) r.notes));
       ("optimal", Sjson.Bool r.optimal);
       ("verified", opt_bool r.verified);
       ("runtime_s", Sjson.Num r.runtime);
       ("solves", num_int r.solves);
       ("stages", json_stages r.stages);
     ]
    @ json_run run
    @ [ ("sat_stats", json_sat_stats r.sat_stats) ]
    @ json_payload ~output r.elementary)

(* The --json report of a failed run: what was asked, why it failed, and
   whatever the failure still carries (solver counters, stage list). *)
let failure_json ~mode ~input ~strategy ~error extra =
  Sjson.Obj
    ([
       ("mode", Sjson.Str mode);
       ("input", Sjson.Str input);
       ("strategy", Sjson.Str (Strategy.name strategy));
       ("error", Sjson.Str error);
     ]
    @ extra)

let print_json v = print_endline (Sjson.print v)

(* -- live progress -------------------------------------------------------- *)

(* A trace sink that keeps one carriage-returned status line on stderr,
   refreshed at most ~10× a second on the events that move it: the
   stage from portfolio.stage and mapper.<phase> begins, the best cost
   from minimize.incumbent, conflicts and restarts from solver.restart
   (each carries the conflicts of its own round, so the sum over
   concurrent solvers is exact).  Events arrive from every solving
   domain, hence the lock; conflicts/s is measured between consecutive
   printed lines.  Every event is also offered to the flight recorder,
   which only keeps it while armed. *)
let progress_sink () =
  let lock = Mutex.create () in
  let start = Unix.gettimeofday () in
  let stage = ref None and phase = ref "start" and best = ref max_int in
  let conflicts = ref 0 and restarts = ref 0 in
  let last_print = ref 0.0 and last_conflicts = ref 0 and printed = ref false in
  let int_arg k (ev : Trace.event) =
    match List.assoc_opt k ev.args with Some (Trace.Int i) -> i | _ -> 0
  in
  (* fold one event into the status; true when it moved it *)
  let update (ev : Trace.event) =
    match (ev.ph, ev.name) with
    | `B, "portfolio.stage" ->
        (match List.assoc_opt "stage" ev.args with
        | Some (Trace.Str st) -> stage := Some st
        | _ -> ());
        true
    | `B, name -> (
        match String.split_on_char '.' name with
        | [ "mapper"; p ] when List.mem p Profile.mapper_phases ->
            phase := p;
            true
        | _ -> false)
    | `I, "minimize.incumbent" ->
        best := min !best (int_arg "cost" ev);
        true
    | `I, "solver.restart" ->
        conflicts := !conflicts + int_arg "conflicts" ev;
        incr restarts;
        true
    | _ -> false
  in
  let print now =
    let rate =
      if !last_print > 0.0 then
        float_of_int (!conflicts - !last_conflicts) /. (now -. !last_print)
      else 0.0
    in
    last_print := now;
    last_conflicts := !conflicts;
    printed := true;
    Printf.eprintf
      "\r[%7.1fs] %-14s best=%-6s conflicts=%-9d (%7.0f/s) restarts=%d   %!"
      (now -. start)
      (Option.value ~default:!phase !stage)
      (if !best = max_int then "-" else string_of_int !best)
      !conflicts rate !restarts
  in
  let sink ev =
    Flight.record ev;
    Mutex.lock lock;
    (if update ev then
       let now = Unix.gettimeofday () in
       if now -. !last_print >= 0.1 then print now);
    Mutex.unlock lock
  in
  let finish () =
    Trace.set_sink (if Flight.enabled () then Some Flight.record else None);
    if !printed then prerr_newline ()
  in
  (sink, finish)

(* Fault-injection knob for exercising degradation paths from the shell;
   the grammar is Fault.of_string's. *)
let inject_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Fault.of_string s) in
  Arg.conv (parse, fun fmt _ -> Format.fprintf fmt "<fault>")

let portfolio_summary (r : Portfolio.report) =
  Printf.eprintf
    "mapped: %d gates (overhead F = %d), provenance %s%s%s, %.3fs, %d solves\n"
    r.total_gates r.f_cost
    (Portfolio.provenance_string r.provenance)
    (match r.notes with
    | [] -> ""
    | notes -> Printf.sprintf " [%s]" (String.concat ", " notes))
    (match r.verified with
    | Some true -> ", equivalence verified"
    | Some false -> ", VERIFICATION FAILED"
    | None -> "")
    r.runtime r.solves;
  List.iter
    (fun (s : Portfolio.stage) ->
      Printf.eprintf "  stage %-16s %8.3fs %6d solves  %s\n" s.stage s.spent
        s.solves s.outcome)
    r.stages

(* -- lint helpers --------------------------------------------------------- *)

let format_conv = Arg.enum [ ("text", `Text); ("json", `Json) ]

let render_diags ~format out diags =
  match format with
  | `Text ->
      List.iter (fun d -> Printf.fprintf out "%s\n" (Diagnostic.to_string d)) diags
  | `Json -> Printf.fprintf out "%s\n" (Diagnostic.list_to_json diags)

(* Build the paper's SAT encoding for a circuit with the CNF analyzer
   attached and return its findings.  Skipped (empty) when the circuit
   does not fit the device or has no CNOTs — there is nothing to encode. *)
let lint_encoding ~file ~device circuit =
  let cnots = Circuit.cnots circuit in
  if cnots = [] || Circuit.num_qubits circuit > Coupling.num_qubits device
  then []
  else begin
    let solver = Solver.create () in
    let cnf = Cnf.create solver in
    let lint = Cnf_lint.attach cnf in
    let instance =
      {
        Encoding.arch = device;
        num_logical = Circuit.num_qubits circuit;
        cnots = Array.of_list cnots;
        spots = Strategy.spots Strategy.Minimal cnots;
      }
    in
    let _built = Encoding.build cnf instance in
    List.map
      (fun (d : Diagnostic.t) ->
        match d.loc with
        | Some _ -> d
        | None -> { d with loc = Some { Diagnostic.file; line = 0 } })
      (Cnf_lint.report lint)
  end

let lint_cmd =
  let files_arg =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"INPUT.qasm" ~doc:"OpenQASM 2.0 files to lint.")
  in
  let suite_arg =
    Arg.(
      value & flag
      & info [ "suite" ]
          ~doc:"Also lint every reconstructed Table-1 benchmark circuit.")
  in
  let encoding_arg =
    Arg.(
      value & flag
      & info [ "encoding" ]
          ~doc:
            "Also build the SAT encoding of each linted circuit (files, \
             and the small-benchmark subset with --suite) with the CNF \
             analyzer attached, checking clause shapes, duplicate and \
             tautological clauses, and unconstrained auxiliaries.")
  in
  let format_arg =
    Arg.(
      value & opt format_conv `Text
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:"Output format: text (compiler-style lines) or json.")
  in
  let run files suite encoding device format =
    let diags = ref [] in
    let add ds = diags := !diags @ ds in
    List.iter
      (fun path ->
        let ds, ann = Circuit_lint.lint_qasm_file path in
        add ds;
        match ann with
        | Some ann when encoding ->
            add (lint_encoding ~file:path ~device ann.Qasm.circuit)
        | _ -> ())
      files;
    if suite then begin
      List.iter
        (fun (e : Suite.entry) ->
          add (Circuit_lint.check ~file:("bench:" ^ e.name) e.circuit))
        (Suite.all ());
      if encoding then
        List.iter
          (fun (e : Suite.entry) ->
            add (lint_encoding ~file:("bench:" ^ e.name) ~device e.circuit))
          (Suite.small ())
    end;
    render_diags ~format stdout !diags;
    let errors = Diagnostic.errors !diags in
    Printf.eprintf "lint: %d finding(s), %d error(s)\n"
      (List.length !diags) (List.length errors);
    if errors <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static analysis: lint QASM circuits (and optionally their SAT \
          encodings) without mapping them.  Exits 1 if any error-severity \
          finding is reported.")
    Term.(
      const run $ files_arg $ suite_arg $ encoding_arg $ device_arg
      $ format_arg)

let map_cmd =
  let strategy_arg =
    Arg.(
      value
      & opt strategy_conv Strategy.Minimal
      & info [ "s"; "strategy" ] ~docv:"STRATEGY"
          ~doc:
            "Permutation strategy: minimal, disjoint, odd, triangle \
             (Secs. 3 and 4.2).")
  in
  let subsets_arg =
    Arg.(
      value
      & opt bool true
      & info [ "subsets" ] ~docv:"BOOL"
          ~doc:"Use the physical-qubit-subset optimization (Sec. 4.1).")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some (pos_float_conv ~flag:"--timeout" ~unit:"seconds")) None
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Wall-clock budget.")
  in
  let portfolio_arg =
    Arg.(
      value & flag
      & info [ "portfolio" ]
          ~doc:
            "Resilient portfolio mode: staged exact solving on the whole \
             --timeout budget, raced against SABRE while optimality is \
             open.  A DP-seeded search that finds no model answers with \
             the permutation DP's routing (provenance dp-incumbent), so \
             it never fails with a bare timeout when a valid mapping \
             can be produced.")
  in
  let inject_arg =
    Arg.(
      value
      & opt (some inject_conv) None
      & info [ "inject" ] ~docv:"FAULT"
          ~doc:
            "Testing knob: arm deterministic SAT fault injection \
             (unknown, after=N, truncate=N, seed=K:P) to exercise the \
             degradation paths.")
  in
  let lint_arg =
    Arg.(
      value
      & opt ~vopt:(Some `Text) (some format_conv) None
      & info [ "lint" ] ~docv:"FORMAT"
          ~doc:
            "Lint the input before mapping and the mapped result against \
             the device afterwards (findings on stderr as text or json); \
             abort with exit 1 on any error-severity finding.")
  in
  let sanitize_arg =
    Arg.(
      value & flag
      & info [ "sanitize" ]
          ~doc:
            "Run every SAT solve with the solver invariant checker \
             enabled (watched literals, trail, branching heap).  A \
             violation aborts with an Invariant_violation exception.")
  in
  let solver_stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print aggregated SAT-solver statistics on stderr after \
             mapping: conflicts, propagations (total and binary-watch), \
             the learnt-clause glue histogram, the minimization counter \
             and the clause-arena collection counters.")
  in
  let jobs_arg =
    Arg.(
      value
      & opt
          (pos_int_conv ~flag:"--jobs" ~unit:"worker domains")
          (Domain.recommended_domain_count ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the parallel mapping engine (default: \
             the machine's recommended domain count).  Candidate \
             sub-architectures race with shared incumbent pruning.  \
             $(b,-j1) runs the classic sequential path; every value of \
             N produces the same mapping on budget-free runs.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"OUT.json"
          ~doc:
            "Record a span trace of the whole run (mapper candidates, \
             portfolio lanes, minimization steps, solver phases, tagged \
             by worker domain) and write it as Chrome trace-event JSON \
             — load it in Perfetto (ui.perfetto.dev) or \
             chrome://tracing.  See doc/OBSERVABILITY.md.")
  in
  let events_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"OUT.ndjson"
          ~doc:
            "Also write the span events as newline-delimited JSON (one \
             event object per line), for ad-hoc processing with jq/awk.")
  in
  let metrics_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write a final metrics snapshot to FILE after mapping: \
             counters and gauges one per line, histograms as \
             $(b,name n=<count> p50=<v> p90=<v> p99=<v>) with quantiles \
             interpolated from the log2 buckets.  See \
             doc/OBSERVABILITY.md.")
  in
  let flight_record_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-record" ] ~docv:"FILE"
          ~doc:
            "Keep a fixed-size in-memory ring of recent trace events, \
             the solver's search-state samples among them, and dump it \
             to FILE (NDJSON, written atomically) if the run times out \
             or fails.  Analyse the dump with $(b,qxm_prof).  See \
             doc/OBSERVABILITY.md.")
  in
  let progress_arg =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "Live single-line status on stderr while solving: elapsed \
             time, current phase, best objective cost so far, \
             cumulative conflicts and conflicts/s, restarts.")
  in
  let certificate_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "certificate" ] ~docv:"OUT.json"
          ~doc:
            "Emit a self-contained optimality certificate (QXMCERT1 \
             JSON: circuit, device, model, bound ladder, DRUP proof) \
             for offline re-validation with $(b,qxm_audit).  Requires \
             the run to prove minimality; exits 1 otherwise.  See \
             doc/CERTIFICATES.md.")
  in
  let no_symmetry_arg =
    Arg.(
      value & flag
      & info [ "no-symmetry" ]
          ~doc:
            "Disable the lex-leader symmetry-breaking constraints over \
             the initial layout (on by default for the minimal \
             strategy).  Symmetry breaking is optimum-preserving; this \
             knob exists for A/B measurement and debugging.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print exactly one JSON report object on stdout (cost, \
             optimality, strategy, per-stage telemetry, solver \
             counters, objective trajectory) instead of the QASM \
             stream.  The mapped circuit is embedded as a \"qasm\" \
             field, or written to $(b,--output) when given.  A failed \
             run prints one object with an \"error\" field instead \
             (and still exits 1).  All human-readable output stays on \
             stderr, so piping into jq always works.")
  in
  let run input device strategy subsets timeout portfolio inject lint sanitize solver_stats jobs trace events
      metrics_out flight_record progress no_symmetry certificate json
      output draw =
    let jobs = max 1 jobs in
    if sanitize then Solver.set_sanitize_all true;
    (* --json folds its per-run fields from the trace buffer *)
    if trace <> None || events <> None || json then Trace.enable ();
    Option.iter (fun path -> Flight.enable ~path ()) flight_record;
    let flight_dump reason =
      if flight_record <> None then
        match Flight.dump ~reason () with
        | Some path -> Printf.eprintf "flight record: %s\n" path
        | None -> ()
    in
    let write_observability () =
      Trace.disable ();
      Option.iter Trace.write_chrome trace;
      Option.iter Trace.write_ndjson events;
      Option.iter
        (fun path ->
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc
                (Metrics.render_text (Metrics.snapshot ()))))
        metrics_out
    in
    (* installed after the flight recorder, whose ring it feeds *)
    let finish_progress =
      if progress then begin
        let sink, finish = progress_sink () in
        Trace.set_sink (Some sink);
        finish
      end
      else Fun.id
    in
    let circuit = load input in
    (match lint with
    | None -> ()
    | Some format ->
        let ds, _ = Circuit_lint.lint_qasm_file input in
        render_diags ~format stderr ds;
        if Diagnostic.errors ds <> [] then begin
          Printf.eprintf "lint: input has error-severity findings, not \
                          mapping\n";
          exit 1
        end);
    let lint_output mapped =
      match lint with
      | None -> ()
      | Some format ->
          let ds =
            Circuit_lint.check_mapped ~file:"<mapped>" ~coupling:device
              mapped
          in
          render_diags ~format stderr ds;
          if Diagnostic.errors ds <> [] then begin
            Printf.eprintf "lint: mapped circuit violates the coupling \
                            map\n";
            exit 1
          end
    in
    Option.iter Fault.arm inject;
    let t0_us = Trace.now_us () in
    let run_summary () = Profile.fold_run ~t0_us (Trace.events ()) in
    if portfolio then begin
      let options =
        {
          Portfolio.default with
          exact =
            {
              Mapper.default with
              strategy;
              use_subsets = subsets;
              jobs;
              symmetry = not no_symmetry;
              certificate = certificate <> None;
            };
          budget = timeout;
          jobs;
        }
      in
      match Portfolio.run ~options ~arch:device circuit with
      | Ok r ->
          finish_progress ();
          write_observability ();
          if
            List.mem "deadline_expired" r.notes
            || List.mem "cancelled" r.notes
          then flight_dump "deadline_expired";
          portfolio_summary r;
          if solver_stats then print_sat_stats r.sat_stats;
          if draw && not json then Draw.print r.elementary;
          lint_output r.elementary;
          Option.iter
            (fun path ->
              write_certificate path (fun () ->
                  Qxm_audit.Emit.of_portfolio
                    ~device_name:(device_name_of device) ~arch:device
                    ~circuit ~options r))
            certificate;
          if json then begin
            Option.iter (fun path -> Qasm.write_file path r.elementary) output;
            print_json (portfolio_json ~input ~output ~run:(run_summary ()) r)
          end
          else emit output r.elementary;
          if r.verified = Some false then exit 1
      | Error e ->
          finish_progress ();
          write_observability ();
          flight_dump "failure";
          Format.eprintf "mapping failed: %a@." Portfolio.pp_failure e;
          if json then
            print_json
              (failure_json ~mode:"portfolio" ~input ~strategy
                 ~error:(Format.asprintf "%a" Portfolio.pp_failure e)
                 (match e with
                 | Portfolio.Exhausted stages ->
                     [ ("stages", json_stages stages) ]
                 | Portfolio.Too_many_logical _ | Portfolio.Disconnected _ ->
                     []));
          exit 1
    end
    else begin
      let options =
        {
          Mapper.default with
          strategy;
          use_subsets = subsets;
          timeout;
          jobs;
          symmetry = not no_symmetry;
          certificate = certificate <> None;
        }
      in
      match Mapper.run ~options ~arch:device circuit with
      | Ok r ->
          finish_progress ();
          write_observability ();
          if (not r.optimal) && timeout <> None then flight_dump "timeout";
          report_summary r;
          if solver_stats then print_sat_stats r.sat_stats;
          if draw && not json then Draw.print r.elementary;
          lint_output r.elementary;
          Option.iter
            (fun path ->
              write_certificate path (fun () ->
                  Qxm_audit.Emit.of_report
                    ~device_name:(device_name_of device) ~arch:device
                    ~circuit ~options r))
            certificate;
          if json then begin
            Option.iter (fun path -> Qasm.write_file path r.elementary) output;
            print_json (mapper_json ~input ~output ~run:(run_summary ()) r)
          end
          else emit output r.elementary;
          if r.verified = Some false then exit 1
      | Error e ->
          finish_progress ();
          write_observability ();
          flight_dump
            (match e with Mapper.Timeout _ -> "timeout" | _ -> "failure");
          Format.eprintf "mapping failed: %a@." Mapper.pp_failure e;
          let stats =
            match e with
            | Mapper.Timeout st | Mapper.Unmappable st -> Some st
            | Mapper.Too_many_logical _ | Mapper.Disconnected _ -> None
          in
          if solver_stats then Option.iter print_sat_stats stats;
          if json then
            print_json
              (failure_json ~mode:"exact" ~input ~strategy
                 ~error:(Format.asprintf "%a" Mapper.pp_failure e)
                 (match stats with
                 | Some st -> [ ("sat_stats", json_sat_stats st) ]
                 | None -> []));
          exit 1
    end
  in
  Cmd.v
    (Cmd.info "map"
       ~doc:
         "Exact SAT-based mapping (minimal SWAP/H cost), optionally as \
          a resilient portfolio raced against SABRE.")
    Term.(
      const run $ input_arg $ device_arg $ strategy_arg $ subsets_arg
      $ timeout_arg $ portfolio_arg $ inject_arg $ lint_arg $ sanitize_arg $ solver_stats_arg $ jobs_arg
      $ trace_arg $ events_arg $ metrics_out_arg $ flight_record_arg
      $ progress_arg $ no_symmetry_arg $ certificate_arg
      $ json_arg $ output_arg $ draw_arg)

let heuristic_cmd =
  let algo_arg =
    Arg.(
      value
      & opt
          (enum [ ("stochastic", `Stochastic); ("sabre", `Sabre) ])
          `Stochastic
      & info [ "a"; "algorithm" ] ~docv:"ALGO"
          ~doc:
            "stochastic (Qiskit-0.4-style) or sabre (Li-Ding-Xie-style).")
  in
  let times_arg =
    Arg.(
      value
      & opt (pos_int_conv ~flag:"--times" ~unit:"repetitions") 5
      & info [ "times" ] ~docv:"N"
          ~doc:"Stochastic repetitions; the best result is kept.")
  in
  let run input device algo times output draw =
    let circuit = load input in
    let total, f, elementary, verified =
      match algo with
      | `Stochastic ->
          let r =
            Qxm_heuristic.Stochastic_swap.run_best ~times ~arch:device
              circuit
          in
          (r.total_gates, r.f_cost, r.elementary, r.verified)
      | `Sabre ->
          let r = Qxm_heuristic.Sabre.run ~arch:device circuit in
          (r.total_gates, r.f_cost, r.elementary, r.verified)
    in
    Printf.eprintf "mapped: %d gates (overhead F = %d)%s\n" total f
      (match verified with
      | Some true -> ", equivalence verified"
      | Some false -> ", VERIFICATION FAILED"
      | None -> "");
    if draw then Draw.print elementary;
    emit output elementary;
    if verified = Some false then exit 1
  in
  Cmd.v
    (Cmd.info "heuristic" ~doc:"Heuristic baselines (for comparison).")
    Term.(
      const run $ input_arg $ device_arg $ algo_arg $ times_arg $ output_arg
      $ draw_arg)

let devices_cmd =
  let run () =
    List.iter
      (fun name ->
        match Devices.by_name name with
        | Some d ->
            Printf.printf "%-6s %2d qubits, %2d directed edges\n" name
              (Coupling.num_qubits d)
              (List.length (Coupling.edges d))
        | None -> Printf.printf "%-6s (parametric)\n" name)
      Devices.names
  in
  Cmd.v
    (Cmd.info "devices" ~doc:"List the built-in coupling maps.")
    Term.(const run $ const ())

let stats_cmd =
  let run input draw =
    let c = load input in
    let cnots = Circuit.cnots c in
    Printf.printf
      "qubits: %d\ngates: %d (%d single-qubit + %d CNOT)\nlayers (disjoint \
       clustering): %d\npermutation spots: minimal=%d disjoint=%d odd=%d \
       triangle=%d\n"
      (Circuit.num_qubits c) (Circuit.length c) (Circuit.count_singles c)
      (Circuit.count_cnots c)
      (Layers.count (Layers.of_circuit c))
      (Strategy.reported_size Strategy.Minimal cnots)
      (Strategy.reported_size Strategy.Disjoint_qubits cnots)
      (Strategy.reported_size Strategy.Odd_gates cnots)
      (Strategy.reported_size Strategy.Qubit_triangle cnots);
    if draw then Draw.print c
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Circuit statistics and layering.")
    Term.(const run $ input_arg $ draw_arg)

let () =
  let info =
    Cmd.info "qxmap" ~version:"1.0.0"
      ~doc:
        "Map quantum circuits to IBM QX architectures with the minimal \
         number of SWAP and H operations (Wille/Burgholzer/Zulehner, DAC \
         2019)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ map_cmd; heuristic_cmd; devices_cmd; stats_cmd; lint_cmd ]))
