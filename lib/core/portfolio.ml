module Circuit = Qxm_circuit.Circuit
module Coupling = Qxm_arch.Coupling
module Sabre = Qxm_heuristic.Sabre
module Pool = Qxm_par.Pool
module Cancel = Qxm_par.Cancel
module Solver = Qxm_sat.Solver
module Trace = Qxm_obs.Trace

type provenance = Exact_optimal | Exact_incumbent | Heuristic

let provenance_string = function
  | Exact_optimal -> "exact-optimal"
  | Exact_incumbent -> "exact-incumbent"
  | Heuristic -> "heuristic:sabre"

let pp_provenance fmt p = Format.pp_print_string fmt (provenance_string p)

(* Share of [budget] the exact stages get when [exact_budget] is unset;
   the rest is the reserve for SABRE, reconstruction and verification. *)
let exact_fraction = 0.7

type stage = { stage : string; spent : float; solves : int; outcome : string }

type options = {
  exact : Mapper.options;
  budget : float option;
  exact_budget : float option;
  ladder : int list;
  jobs : int;
}

let default =
  {
    exact = Mapper.default;
    budget = None;
    exact_budget = None;
    ladder = [ 4000; -1 ];
    jobs = 1;
  }

type report = {
  mapped : Circuit.t;
  elementary : Circuit.t;
  initial : int array;
  final : int array;
  f_cost : int;
  total_gates : int;
  provenance : provenance;
  optimal : bool;
  verified : bool option;
  runtime : float;
  solves : int;
  stages : stage list;
  sat_stats : Solver.stats;
  strategy_name : string;
  notes : string list;
  witness : Mapper.witness option;
}

type failure =
  | Too_many_logical of { logical : int; physical : int }
  | Disconnected of { logical : int; largest : int }
  | Exhausted of stage list

let pp_failure fmt = function
  | Too_many_logical { logical; physical } ->
      Mapper.pp_failure fmt (Mapper.Too_many_logical { logical; physical })
  | Disconnected { logical; largest } ->
      Mapper.pp_failure fmt (Mapper.Disconnected { logical; largest })
  | Exhausted stages ->
      Format.fprintf fmt "every portfolio stage failed:";
      List.iter
        (fun s -> Format.fprintf fmt " [%s: %s]" s.stage s.outcome)
        stages

(* A stage result awaiting the final provenance decision. *)
type candidate = {
  c_mapped : Circuit.t;
  c_elementary : Circuit.t;
  c_initial : int array;
  c_final : int array;
  c_f_cost : int;
  c_total : int;
  c_verified : bool option;
  c_provenance : provenance;
  c_witness : Mapper.witness option;
}

let certified ~arch c =
  match (Certify.compliance ~arch c.c_elementary, c.c_verified) with
  | Error msg, _ -> Error ("rejected: " ^ msg)
  | Ok (), Some false -> Error "rejected: equivalence check failed"
  | Ok (), (None | Some true) -> Ok c

let run ?(options = default) ?cancel ~arch circuit =
  let start = Unix.gettimeofday () in
  let m = Coupling.num_qubits arch in
  let n = Circuit.num_qubits circuit in
  let largest = Coupling.largest_component arch in
  if n > m then Error (Too_many_logical { logical = n; physical = m })
  else if n > largest then Error (Disconnected { logical = n; largest })
  else begin
    let stages = ref [] in
    let solves = ref 0 in
    let sat_stats = ref Solver.zero_stats in
    let note_stats st = sat_stats := Solver.add_stats !sat_stats st in
    let record ~stage ~t0 ~stage_solves outcome =
      solves := !solves + stage_solves;
      stages :=
        {
          stage;
          spent = Unix.gettimeofday () -. t0;
          solves = stage_solves;
          outcome;
        }
        :: !stages
    in
    let exact_deadline =
      match (options.exact_budget, options.budget) with
      | Some e, _ -> Some (start +. e)
      | None, Some b -> Some (start +. (exact_fraction *. b))
      | None, None -> None
    in
    let exact_time_left () =
      match exact_deadline with
      | None -> None
      | Some d -> Some (d -. Unix.gettimeofday ())
    in
    (* Best exact result so far (optimal or anytime incumbent). *)
    let best_exact : Mapper.report option ref = ref None in
    let note_exact (r : Mapper.report) =
      match !best_exact with
      | Some prev when prev.f_cost <= r.f_cost -> ()
      | _ -> best_exact := Some r
    in
    let proved_optimal = ref false in
    (* Set whenever the exact deadline cut the pipeline short: a rung
       skipped for spent budget, a rung whose result was still unproven
       when the budget ran out, or a rung that timed out outright.  The
       report then carries a ["deadline_expired"] provenance note, so a
       degraded answer is distinguishable from a genuinely finished one. *)
    let deadline_hit = ref false in
    (* The caller's supervisor token (a daemon watchdog, a batch driver)
       goes straight to every solve, which polls it through
       [Solver.set_stop], and is checked again between stages. *)
    let cancelled () =
      match cancel with Some c -> Cancel.cancelled c | None -> false
    in
    (* One ladder rung, seeded with the best incumbent's objective value. *)
    let run_exact ?pool ~stage ~conflict_limit () =
      let t0 = Unix.gettimeofday () in
      Trace.with_span ~name:"portfolio.stage"
        ~args:
          [
            ("stage", Trace.Str stage);
            ("conflict_limit", Trace.Int conflict_limit);
          ]
      @@ fun () ->
      let deadline_spent () =
        match exact_time_left () with Some l -> l <= 0.0 | None -> false
      in
      match exact_time_left () with
      | Some left when left <= 0.0 ->
          deadline_hit := true;
          record ~stage ~t0 ~stage_solves:0 "skipped: exact budget spent"
      | left ->
          let upper_bound =
            match
              ( Option.map
                  (fun (r : Mapper.report) -> r.objective_cost)
                  !best_exact,
                options.exact.upper_bound )
            with
            | Some a, Some b -> Some (min a b)
            | (Some _ as s), None | None, (Some _ as s) -> s
            | None, None -> None
          in
          let opts =
            {
              options.exact with
              conflict_limit;
              timeout = left;
              upper_bound;
            }
          in
          let seeded = upper_bound <> options.exact.upper_bound in
          (match
             Mapper.run ~options:opts ?pool ?cancel ~arch circuit
           with
          | Ok r ->
              note_stats r.sat_stats;
              note_exact r;
              if r.optimal then proved_optimal := true
              else if
                (* A deadline-bearing unlimited rung can only come back
                   unproven because the clock cut it (possibly inside the
                   canonical winner re-solve of a race that could fan
                   out, which reserves a slice of the budget and stops
                   slightly early). *)
                not r.optimal
                && ((conflict_limit < 0 && exact_deadline <> None)
                   || deadline_spent ())
              then deadline_hit := true;
              record ~stage ~t0 ~stage_solves:r.solves
                (Printf.sprintf "%s F=%d"
                   (if r.optimal then "optimal" else "incumbent")
                   r.f_cost)
          | Error (Mapper.Timeout st) ->
              note_stats st;
              if deadline_spent () then deadline_hit := true;
              record ~stage ~t0 ~stage_solves:0 "budget exhausted"
          | Error (Mapper.Unmappable st) ->
              note_stats st;
              (* With a seeded bound, UNSAT only means "nothing cheaper
                 than the incumbent", which proves the incumbent optimal
                 when this rung had no other budget pressure. *)
              if seeded && conflict_limit < 0 then proved_optimal := true;
              record ~stage ~t0 ~stage_solves:0
                (if seeded then "no improvement on incumbent" else "unsat")
          | Error ((Mapper.Too_many_logical _ | Mapper.Disconnected _) as e)
            ->
              record ~stage ~t0 ~stage_solves:0
                (Format.asprintf "failed: %a" Mapper.pp_failure e)
          | exception e ->
              record ~stage ~t0 ~stage_solves:0
                ("failed: " ^ Printexc.to_string e))
    in
    (* With the DP seed, the first model of the first rung is already
       the optimum, and every rung after it would only retry refuting
       F*-1 on a fresh encode: the ladder's last rung alone runs. *)
    let ladder =
      match List.rev options.ladder with
      | last :: _ :: _ when Mapper.seeded options.exact ~arch circuit ->
          [ last ]
      | _ -> options.ladder
    in
    (* The exact lane: the conflict-limit ladder on the requested
       strategy.  Every rung is a fresh {!Mapper.run}, bounded by the
       incumbent's objective value and started at the permutation DP's
       optimal routing where that is tractable.  A cancelled run stops
       between rungs (and, through [Solver.set_stop], mid-solve). *)
    let exact_lane ?pool () =
      Trace.with_span ~name:"portfolio.exact_lane" @@ fun () ->
      let stopped = ref false in
      List.iter
        (fun limit ->
          if not !proved_optimal then
            if cancelled () then stopped := true
            else
              run_exact ?pool
                ~stage:
                  (Printf.sprintf "exact:%s"
                     (if limit < 0 then "unlimited" else string_of_int limit))
                ~conflict_limit:limit ())
        ladder;
      if !stopped then
        record ~stage:"exact" ~t0:(Unix.gettimeofday ()) ~stage_solves:0
          "cancelled"
    in
    (* Assemble (and gate) the exact side's best result once the exact
       lane has finished. *)
    let assemble_exact () =
      let exact_candidate =
        Option.map
          (fun (r : Mapper.report) ->
            {
              c_mapped = r.mapped;
              c_elementary = r.elementary;
              c_initial = r.initial;
              c_final = r.final;
              c_f_cost = r.f_cost;
              c_total = r.total_gates;
              c_verified = r.verified;
              c_provenance =
                (if !proved_optimal then Exact_optimal else Exact_incumbent);
              c_witness = r.witness;
            })
          !best_exact
      in
      (* An exact result must pass the same gate as SABRE's. *)
      match exact_candidate with
      | None -> None
      | Some c -> (
          match certified ~arch c with
          | Ok c -> Some c
          | Error msg ->
              record ~stage:"certify:exact" ~t0:(Unix.gettimeofday ())
                ~stage_solves:0 msg;
              None)
    in
    (* The heuristic lane: one SABRE stage, gated like the exact answer. *)
    let heuristic_lane () =
      Trace.with_span ~name:"portfolio.heuristic_lane" @@ fun () ->
      let record =
        record ~stage:"sabre" ~t0:(Unix.gettimeofday ()) ~stage_solves:0
      in
      if cancelled () then begin
        record "skipped: cancelled";
        None
      end
      else
        match Sabre.run ~verify:options.exact.verify ~arch circuit with
        | exception e ->
            record ("failed: " ^ Printexc.to_string e);
            None
        | r -> (
            match
              certified ~arch
                {
                  c_mapped = r.mapped;
                  c_elementary = r.elementary;
                  c_initial = r.initial;
                  c_final = r.final;
                  c_f_cost = r.f_cost;
                  c_total = r.total_gates;
                  c_verified = r.verified;
                  c_provenance = Heuristic;
                  c_witness = None;
                }
            with
            | Ok c ->
                record (Printf.sprintf "ok F=%d" c.c_f_cost);
                Some c
            | Error msg ->
                record msg;
                None)
    in
    (* Exact stages first, SABRE only while optimality is still
       open.  [jobs > 1] widens only the exact lane: every rung's
       candidate fan-out draws from one shared pool. *)
    if options.jobs > 1 then
      Pool.with_pool options.jobs (fun pool -> exact_lane ~pool ())
    else exact_lane ();
    let exact_candidate = assemble_exact () in
    let heuristic_candidate =
      if !proved_optimal && exact_candidate <> None then None
      else heuristic_lane ()
    in
    let chosen =
      match (exact_candidate, heuristic_candidate) with
      | Some e, Some h -> Some (if h.c_f_cost < e.c_f_cost then h else e)
      | (Some _ as c), None | None, (Some _ as c) -> c
      | None, None -> None
    in
    match chosen with
    | None -> Error (Exhausted (List.rev !stages))
    | Some c ->
        Ok
          {
            mapped = c.c_mapped;
            elementary = c.c_elementary;
            initial = c.c_initial;
            final = c.c_final;
            f_cost = c.c_f_cost;
            total_gates = c.c_total;
            provenance = c.c_provenance;
            optimal = c.c_provenance = Exact_optimal;
            verified = c.c_verified;
            runtime = Unix.gettimeofday () -. start;
            solves = !solves;
            stages = List.rev !stages;
            sat_stats = !sat_stats;
            strategy_name = Strategy.name options.exact.strategy;
            witness = c.c_witness;
            notes =
              (if !deadline_hit && c.c_provenance <> Exact_optimal then
                 [ "deadline_expired" ]
               else [])
              @
              if cancelled () then [ "cancelled" ] else [];
          }
  end
