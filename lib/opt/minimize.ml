module Solver = Qxm_sat.Solver
module Lit = Qxm_sat.Lit
module Pb = Qxm_encode.Pb
module Cnf = Qxm_encode.Cnf
module Trace = Qxm_obs.Trace
module Metrics = Qxm_obs.Metrics

type outcome = {
  cost : int option;
  model : bool array option;
  optimal : bool;
  solves : int;
  unsatisfiable : bool;
  proof : Qxm_sat.Proof.t option;
  bounds : int list;
  pb_cap : int option;
}

(* Persistent minimization state over one long-lived solver: the PB
   circuit (built once, capped at the first bound it is asked for), the
   best model, the lowest permanently enforced bound (a watermark —
   bounds are only re-enforced when strictly tighter, so the cumulative
   [s_bounds] list reproduces the solver's exact input stream), and
   whether the descent already concluded. *)
type session = {
  mutable s_pb : Pb.t option;
  mutable s_best : (int * bool array) option;
  mutable s_enforced : int option;
  mutable s_bounds : int list; (* reversed, cumulative across calls *)
  mutable s_seeded : bool;
  mutable s_proof : Qxm_sat.Proof.t option;
  mutable s_finished : [ `Optimal | `Unsat ] option;
}

let new_session () =
  {
    s_pb = None;
    s_best = None;
    s_enforced = None;
    s_bounds = [];
    s_seeded = false;
    s_proof = None;
    s_finished = None;
  }

let step_conflicts = Metrics.histogram "minimize.step_conflicts"
let seed_rejected = Metrics.counter "minimize.seed_rejected"
let session_cap sn = Option.bind sn.s_pb Pb.cap

let cost_of_model objective model =
  List.fold_left
    (fun acc (w, l) ->
      let v = Lit.var l in
      let value = if Lit.sign l then model.(v) else not model.(v) in
      if value then acc + w else acc)
    0 objective

let minimize ?session ?(deadline = 0.0) ?(conflict_limit = -1) ?upper_bound
    ?warm_start ~cnf ~objective () =
  let solver = Cnf.solver cnf in
  let sn = match session with Some sn -> sn | None -> new_session () in
  match sn.s_finished with
  | Some `Unsat ->
      {
        cost = None;
        model = None;
        optimal = false;
        solves = 0;
        unsatisfiable = true;
        proof = sn.s_proof;
        bounds = List.rev sn.s_bounds;
        pb_cap = session_cap sn;
      }
  | Some `Optimal ->
      let c, m = Option.get sn.s_best in
      {
        cost = Some c;
        model = Some m;
        optimal = true;
        solves = 0;
        unsatisfiable = false;
        proof = sn.s_proof;
        bounds = List.rev sn.s_bounds;
        pb_cap = session_cap sn;
      }
  | None -> (
      let note cost =
        Trace.instant ~args:[ ("cost", Trace.Int cost) ] "minimize.incumbent"
      in
      (* Phase seeding: bias the search toward cost 0 on the objective
         literals.  Phases steer branching order only, so this cannot
         change which costs are reachable — only how fast the descent
         starts.  Done once per session, like the warm-start seed: on a
         resumed solver the saved phases of the previous descent are worth
         more than either. *)
      let first_call = not sn.s_seeded in
      if first_call then begin
        List.iter
          (fun (_, l) ->
            Solver.set_phase solver (Lit.var l) (not (Lit.sign l)))
          objective;
        sn.s_seeded <- true
      end;
      let solves = ref 0 in
      let solve ?(assumptions = []) ?bound () =
        incr solves;
        (* The solver's [conflict_limit] is a cap on its *lifetime* conflict
           count; rebase it so each minimization step gets the full per-call
           budget instead of the first step starving all later ones. *)
        let before = (Solver.stats solver).Solver.conflicts in
        let conflict_limit =
          if conflict_limit < 0 then -1 else before + conflict_limit
        in
        let r =
          Trace.with_span ~name:"minimize.step"
            ~args:
              (("step", Trace.Int !solves)
              ::
              (match bound with
              | Some b -> [ ("bound", Trace.Int b) ]
              | None -> []))
            (fun () ->
              Solver.solve ~assumptions ~deadline ~conflict_limit solver)
        in
        Metrics.observe step_conflicts
          ((Solver.stats solver).Solver.conflicts - before);
        r
      in
      (* Certificate support: record every bound permanently enforced on
         the PB circuit, in order and cumulatively across the session's
         calls — replaying [bounds] reproduces the exact solver input
         stream however many rungs shared this solver.  The watermark skip
         keeps the stream duplicate-free: a bound is enforced only when
         strictly tighter than everything already enforced. *)
      let enforce pb b =
        let tighter =
          match sn.s_enforced with None -> true | Some e -> b < e
        in
        if tighter then begin
          sn.s_enforced <- Some b;
          sn.s_bounds <- b :: sn.s_bounds;
          Pb.enforce_at_most cnf pb b
        end
      in
      (* The circuit is built on first use, capped at the bound that use
         asks for: the seeded [upper_bound], or [best - 1] once a model is
         in hand.  Every later bound is tighter (the watermark only
         descends, the descent only asks below the incumbent), and
         [Pb] rejects one that is not. *)
      let get_pb cap =
        match sn.s_pb with
        | Some pb -> pb
        | None ->
            let pb = Pb.build ~cap cnf objective in
            sn.s_pb <- Some pb;
            pb
      in
      (* A seeded bound at or above a model already in hand prunes
         nothing the descent still asks about. *)
      let redundant b =
        match sn.s_best with Some (c, _) -> b >= c | None -> false
      in
      (match upper_bound with
      | Some b when objective <> [] && not (redundant b) ->
          enforce (get_pb b) b
      | _ -> ());
      let initial =
        match sn.s_best with
        | Some _ -> Solver.Sat (* resume: a model is already in hand *)
        | None -> (
            (* The initial solve runs under whatever bound is already
               permanently enforced (a seeded upper bound): carry it as
               the rung so a long UNSAT grind here is attributable.  A
               warm-start seed is tried first, as assumptions; when they
               are refuted (or run out of budget) the plain solve runs
               as if no seed had been given. *)
            let seeded =
              match warm_start with
              | Some (_ :: _ as assumptions) when first_call -> (
                  match solve ~assumptions ?bound:sn.s_enforced () with
                  | Solver.Sat -> true
                  | Solver.Unsat | Solver.Unknown ->
                      Metrics.incr seed_rejected;
                      false)
              | _ -> false
            in
            match
              if seeded then Solver.Sat else solve ?bound:sn.s_enforced ()
            with
            | Solver.Sat ->
                let m = Solver.model solver in
                let c = cost_of_model objective m in
                sn.s_best <- Some (c, m);
                note c;
                Solver.Sat
            | r -> r)
      in
      match initial with
      | Solver.Unsat ->
          let proof = Solver.proof solver in
          sn.s_finished <- Some `Unsat;
          sn.s_proof <- proof;
          {
            cost = None;
            model = None;
            optimal = false;
            solves = !solves;
            unsatisfiable = true;
            proof;
            bounds = List.rev sn.s_bounds;
            pb_cap = session_cap sn;
          }
      | Solver.Unknown ->
          {
            cost = None;
            model = None;
            optimal = false;
            solves = !solves;
            unsatisfiable = false;
            proof = None;
            bounds = List.rev sn.s_bounds;
            pb_cap = session_cap sn;
          }
      | Solver.Sat ->
          let b0, m0 = Option.get sn.s_best in
          let best = ref b0 in
          let best_model = ref m0 in
          let optimal = ref false in
          let proof = ref None in
          let record_sat () =
            best_model := Solver.model solver;
            best := cost_of_model objective !best_model;
            sn.s_best <- Some (!best, !best_model);
            note !best
          in
          if !best = 0 then optimal := true
          else begin
            let pb = get_pb (!best - 1) in
            let stop = ref false in
            while not !stop do
              let bound = Pb.tighten pb (!best - 1) in
              enforce pb bound;
              match solve ~bound () with
              | Solver.Sat ->
                  record_sat ();
                  if !best = 0 then begin
                    optimal := true;
                    stop := true
                  end
              | Solver.Unsat ->
                  optimal := true;
                  proof := Solver.proof solver;
                  stop := true
              | Solver.Unknown -> stop := true
            done
          end;
          if !optimal then begin
            sn.s_finished <- Some `Optimal;
            sn.s_proof <- !proof
          end;
          {
            cost = Some !best;
            model = Some !best_model;
            optimal = !optimal;
            solves = !solves;
            unsatisfiable = false;
            proof = !proof;
            bounds = List.rev sn.s_bounds;
            pb_cap = session_cap sn;
          })
