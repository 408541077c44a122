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

let step_conflicts = Metrics.histogram "minimize.step_conflicts"
let seed_rejected = Metrics.counter "minimize.seed_rejected"

let cost_of_model objective model =
  List.fold_left
    (fun acc (w, l) ->
      let v = Lit.var l in
      let value = if Lit.sign l then model.(v) else not model.(v) in
      if value then acc + w else acc)
    0 objective

let minimize ?(deadline = 0.0) ?(conflict_limit = -1) ?upper_bound
    ?warm_start ~cnf ~objective () =
  let solver = Cnf.solver cnf in
  let note cost =
    Trace.instant ~args:[ ("cost", Trace.Int cost) ] "minimize.incumbent"
  in
  (* Phase seeding: bias the search toward cost 0 on the objective
     literals.  Phases steer branching order only, so this cannot change
     which costs are reachable — only how fast the descent starts. *)
  List.iter
    (fun (_, l) -> Solver.set_phase solver (Lit.var l) (not (Lit.sign l)))
    objective;
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
        (fun () -> Solver.solve ~assumptions ~deadline ~conflict_limit solver)
    in
    Metrics.observe step_conflicts
      ((Solver.stats solver).Solver.conflicts - before);
    r
  in
  (* The PB circuit is built on first use, capped at the bound that use
     asks for: the seeded [upper_bound], or [best - 1] once a model is in
     hand.  Every later bound is strictly tighter (the descent only asks
     below the incumbent), and [Pb] rejects one that is not.  Certificate
     support: every enforced bound is recorded in order, so replaying
     [bounds] on a circuit rebuilt with the same cap reproduces the exact
     solver input stream. *)
  let pb = ref None in
  let bounds = ref [] in
  let get_pb cap =
    match !pb with
    | Some p -> p
    | None ->
        let p = Pb.build ~cap cnf objective in
        pb := Some p;
        p
  in
  let enforce p b =
    bounds := b :: !bounds;
    Pb.enforce_at_most cnf p b
  in
  let enforced =
    match upper_bound with
    | Some b when objective <> [] ->
        enforce (get_pb b) b;
        Some b
    | _ -> None
  in
  let finish ?cost ?model ?proof ?(optimal = false) ?(unsatisfiable = false)
      () =
    {
      cost;
      model;
      optimal;
      solves = !solves;
      unsatisfiable;
      proof;
      bounds = List.rev !bounds;
      pb_cap = Option.bind !pb Pb.cap;
    }
  in
  (* The initial solve runs under the seeded upper bound, if any: carry
     it as the rung so a long UNSAT grind here is attributable.  A
     warm-start seed is tried first, as assumptions; when they are
     refuted (or run out of budget) the plain solve runs as if no seed
     had been given. *)
  let seeded =
    match warm_start with
    | Some (_ :: _ as assumptions) -> (
        match solve ~assumptions ?bound:enforced () with
        | Solver.Sat -> true
        | Solver.Unsat | Solver.Unknown ->
            Metrics.incr seed_rejected;
            false)
    | _ -> false
  in
  match if seeded then Solver.Sat else solve ?bound:enforced () with
  | Solver.Unsat -> finish ?proof:(Solver.proof solver) ~unsatisfiable:true ()
  | Solver.Unknown -> finish ()
  | Solver.Sat ->
      let best_model = ref (Solver.model solver) in
      let best = ref (cost_of_model objective !best_model) in
      note !best;
      let optimal = ref (!best = 0) in
      let proof = ref None in
      if not !optimal then begin
        let p = get_pb (!best - 1) in
        let stop = ref false in
        while not !stop do
          let bound = Pb.tighten p (!best - 1) in
          enforce p bound;
          match solve ~bound () with
          | Solver.Sat ->
              best_model := Solver.model solver;
              best := cost_of_model objective !best_model;
              note !best;
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
      finish ~cost:!best ~model:!best_model ?proof:!proof ~optimal:!optimal ()
