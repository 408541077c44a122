(* qxbench: the end-to-end and per-layer benchmark of the QX mapper.

     qxbench --workload W --seed N --seconds S --trace 0|1 [--trace-out DIR]

   runs one workload (see workloads.ml and README.md) and prints a text
   table, one JSON object with the run's details, and, as the last line,
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  Without
   --workload it runs every workload in its own child process and checks
   their answers against each other.  The exit code is 0 only when every
   output passed its checks.

   Layers are measured from outside: the benchmark times calls into
   public functions and diffs the Qxm_obs.Metrics registry around them.
   A traced run maps the same fixed number of calls twice, first
   untraced (for the counters) and then with Qxm_obs.Trace on, wrapping
   each call in a bench.* span; the recorded spans give each layer's
   self time. *)

module W = Workloads
module Metrics = Qxm_obs.Metrics
module Trace = Qxm_obs.Trace
module Sjson = Qxm_json.Sjson
module Circuit = Qxm_circuit.Circuit
module Coupling = Qxm_arch.Coupling
module Subsets = Qxm_arch.Subsets
module Swap_count = Qxm_arch.Swap_count
module Strategy = Qxm_exact.Strategy
module Mapper = Qxm_exact.Mapper
module Encoding = Qxm_exact.Encoding
module Daemon = Qxm_svc.Daemon

let now = W.now

(* -- the catalogue; BENCHMARK.json must name exactly these ---------------- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("map_p50_ms", "ms");
    ("map_p90_ms", "ms");
    ("maps_per_s", "1/s");
    ("added_gates_pct", "%");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("sat.conflicts", "count");
    ("sat.decisions", "count");
    ("sat.propagations", "count");
    ("sat.restarts", "count");
    ("sat.props_per_s", "1/s");
    ("sat.minor_words_per_prop", "words");
    ("sat.arena_collections", "count");
    ("sat.self_pct", "%");
    ("opt.solves", "count");
    ("opt.step_conflicts_p50", "conflicts");
    ("opt.self_pct", "%");
    ("encode.vars", "count");
    ("encode.clauses", "count");
    ("encode.build_s", "s");
    ("mapper.encode_s", "s");
    ("mapper.warm_start_s", "s");
    ("mapper.solve_s", "s");
    ("mapper.reconstruct_s", "s");
    ("mapper.verify_s", "s");
    ("mapper.candidates", "count");
    ("mapper.pruned_frac", "ratio");
    ("mapper.ladder_reuse_hits", "count");
    ("mapper.self_pct", "%");
    ("portfolio.rungs", "count");
    ("portfolio.improve_frac", "ratio");
    ("portfolio.probe_pct", "%");
    ("portfolio.ladder_pct", "%");
    ("portfolio.cascade_pct", "%");
    ("portfolio.self_pct", "%");
    ("heuristic.sabre_s", "s");
    ("heuristic.sabre_excess_pct", "%");
    ("heuristic.stochastic_excess_pct", "%");
    ("svc.hit_frac", "ratio");
    ("svc.sheds", "count");
    ("svc.retries", "count");
    ("svc.cache_evictions", "count");
    ("svc.self_pct", "%");
    ("par.pool_tasks", "count");
    ("par.incumbent_updates", "count");
    ("arch.swap_table_s", "s");
    ("obs.trace_overhead_pct", "%");
    ("obs.span_coverage_pct", "%");
  ]

let valid_name s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

(* Every workload and metric named in BENCHMARK.json exists here with the
   same unit, and the other way round. *)
let check_catalogue file =
  let field k j = Option.value ~default:Sjson.Null (Sjson.member k j) in
  let entries k j = match field k j with Sjson.List l -> l | _ -> [] in
  let str k j = Option.value ~default:"" (Sjson.to_string_opt (field k j)) in
  match Sjson.parse (In_channel.with_open_bin file In_channel.input_all) with
  | exception Sys_error e -> Error e
  | Error e -> Error (file ^ ": " ^ e)
  | Ok j ->
      let named k =
        List.map (fun e -> (str "name" e, str "unit" e)) (entries k j)
      in
      let same what declared ours =
        let missing a b = List.filter (fun x -> not (List.mem x b)) a in
        let report where (n, u) =
          Printf.sprintf "%s %s [%s] is not in %s" what n u where
        in
        List.map (report "qxbench") (missing declared ours)
        @ List.map (report file) (missing ours declared)
      in
      let workloads =
        List.map (fun e -> (str "name" e, "")) (entries "workloads" j)
      in
      let problems =
        same "workload" workloads (List.map (fun k -> (W.name k, "")) W.all)
        @ same "metric" (named "end_to_end") end_to_end
        @ same "metric" (named "per_layer") per_layer
        @ List.filter_map
            (fun (n, _) ->
              if valid_name n then None else Some ("invalid name " ^ n))
            (workloads @ end_to_end @ per_layer)
      in
      if problems = [] then Ok () else Error (String.concat "; " problems)

(* -- small helpers -------------------------------------------------------- *)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let pct a b = 100.0 *. ratio a b

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Linear interpolation between closest ranks. *)
let percentile q l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let x = q *. float_of_int (n - 1) in
    let i = int_of_float x in
    let j = min (i + 1) (n - 1) in
    a.(i) +. ((x -. float_of_int i) *. (a.(j) -. a.(i)))

(* Peak resident set of this process, from the kernel. *)
let peak_rss_mb () =
  let from_status =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec scan () =
            match In_channel.input_line ic with
            | None -> None
            | Some l when String.starts_with ~prefix:"VmHWM:" l ->
                Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some kb)
            | Some _ -> scan ()
          in
          scan ())
    with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> None
  in
  match from_status with
  | Some kb -> float_of_int kb /. 1024.0
  | None ->
      float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
      /. 1048576.0

(* The commit, read from .git without running git; "unknown" outside a
   work tree. *)
let git_head () =
  let read f =
    try Some (String.trim (In_channel.with_open_bin f In_channel.input_all))
    with Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | Some h when String.starts_with ~prefix:"ref: " h ->
      Option.value ~default:"unknown"
        (read (Filename.concat ".git" (String.sub h 5 (String.length h - 5))))
  | Some sha -> sha
  | None -> "unknown"

(* -- set-up --------------------------------------------------------------- *)

(* Passes generated per sequential run, and requests per service run.
   A 25 s restricted run maps about 350 passes and wraps around these
   64; the others get through fewer passes than they have. *)
let passes = function
  | W.Restricted -> 64
  | W.Minimal -> 48
  | W.Anytime -> 16
  | W.Service -> 0

let stream_length = 6000

(* The traced run's unit of work, in calls: whole passes, about 3 s of
   each workload on a 2-vCPU machine. *)
let traced_calls = function
  | W.Restricted -> 280
  | W.Minimal -> 20
  | W.Anytime -> 7
  | W.Service -> 160

(* Draws of every profile that each run completes, however slow the
   machine: added_gates_pct covers exactly these, so it depends on the
   seed alone. *)
let quality_draws = function
  | W.Restricted -> 40
  | W.Minimal -> 20
  | W.Anytime -> 8
  | W.Service -> 20

(* Calls that map the first [quality_draws] draws. *)
let quality_calls kind =
  quality_draws kind
  * List.length (W.profiles kind)
  * if kind = W.Service then W.fresh_every else 1

let setup_repeats = 7

type prepared = {
  ops : W.input array;
  per_pass : int;  (** calls in one pass; 1 for the service *)
  daemon : Daemon.t option;
}

(* QX4's swap tables, and those of every connected subset, are built on
   first use and memoized; set-up builds them so no mapping pays for
   them.  The uncached QX4 table build is timed on its own. *)
let warm_arch () =
  let t0 = now () in
  ignore (Swap_count.compute W.arch);
  let swap_table_s = now () -. t0 in
  for n = 2 to Coupling.num_qubits W.arch do
    List.iter
      (fun s ->
        ignore (Swap_count.compute_cached (fst (Coupling.induce W.arch s))))
      (Subsets.connected W.arch n)
  done;
  swap_table_s

let prepare kind ~seed =
  match kind with
  | W.Service ->
      {
        ops = W.request_stream ~seed ~length:stream_length;
        per_pass = 1;
        daemon = Some (W.start_daemon ());
      }
  | W.Restricted | W.Minimal | W.Anytime ->
      {
        ops =
          Array.of_list
            (List.concat (List.init (passes kind) (W.pass ~seed kind)));
        per_pass = List.length (W.profiles kind);
        daemon = None;
      }

(* Set up [setup_repeats] times and keep the last; report medians. *)
let setup kind ~seed =
  let rec go i acc =
    let t0 = now () in
    let swap_s = warm_arch () in
    let p = prepare kind ~seed in
    let acc = (now () -. t0, swap_s) :: acc in
    if i + 1 < setup_repeats then begin
      Option.iter Daemon.shutdown p.daemon;
      go (i + 1) acc
    end
    else (p, median (List.map fst acc), median (List.map snd acc))
  in
  go 0 []

(* -- running -------------------------------------------------------------- *)

(* Calls [0, 1, ...] until [stop i]; the sequential workloads wrap around
   their generated passes. *)
let run_ops kind ops ~daemon ~stop =
  match (kind, daemon) with
  | W.Service, Some d -> W.serve d ops ~stop
  | _ ->
      let rec go i acc =
        if stop i then List.rev acc
        else go (i + 1) (W.map_one kind ops.(i mod Array.length ops) :: acc)
      in
      go 0 []

(* The first successful outcome of each input. *)
let distinct outcomes =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (o : W.outcome) ->
      o.failure = None
      && (not (Hashtbl.mem seen o.input.id))
      &&
      (Hashtbl.add seen o.input.id ();
       true))
    outcomes

(* Bench-side layer passes over a run's distinct inputs: the encoding the
   mapper would build for every candidate sub-architecture, and the two
   heuristic baselines. *)
type layers = {
  vars : int;
  clauses : int;
  build_s : float;
  sabre_s : float;
  sabre_f : int;
  stochastic_f : int;
  exact_f : int;
}

let encode_one strategy (input : W.input) =
  let cnots = Array.of_list (Circuit.cnots input.circuit) in
  let spots = Strategy.spots strategy (Array.to_list cnots) in
  let n = Circuit.num_qubits input.circuit in
  let subs =
    if n < Coupling.num_qubits W.arch then
      List.map
        (fun s -> fst (Coupling.induce W.arch s))
        (Subsets.connected W.arch n)
    else [ W.arch ]
  in
  List.fold_left
    (fun (v, c) sub ->
      let inst = { Encoding.arch = sub; num_logical = n; cnots; spots } in
      let solver =
        Qxm_sat.Solver.create ~capacity:(Encoding.var_capacity_hint inst) ()
      in
      let built =
        Encoding.build ~amo:Mapper.default.amo ~costs:Mapper.default.costs
          ~symmetry:(strategy = Strategy.Minimal && Mapper.default.symmetry)
          (Qxm_encode.Cnf.create solver)
          inst
      in
      (v + Encoding.var_count built, c + Encoding.clause_count built))
    (0, 0) subs

let layer_pass kind outcomes =
  let strategy =
    if kind = W.Restricted then Strategy.Qubit_triangle else Strategy.Minimal
  in
  let heuristics (input : W.input) =
    let t0 = now () in
    let sabre =
      Qxm_heuristic.Sabre.run ~verify:false ~arch:W.arch input.circuit
    in
    let sabre_s = now () -. t0 in
    let stochastic =
      Qxm_heuristic.Stochastic_swap.run_best ~seed:1 ~times:5 ~verify:false
        ~arch:W.arch input.circuit
    in
    (sabre.f_cost, sabre_s, stochastic.f_cost)
  in
  List.fold_left
    (fun l (o : W.outcome) ->
      let (v, c), build_s =
        W.timed "bench.encode" (fun () -> encode_one strategy o.input)
      in
      let (sabre_f, sabre_s, stochastic_f), _ =
        W.timed "bench.heuristic" (fun () -> heuristics o.input)
      in
      {
        vars = l.vars + v;
        clauses = l.clauses + c;
        build_s = l.build_s +. build_s;
        sabre_s = l.sabre_s +. sabre_s;
        sabre_f = l.sabre_f + sabre_f;
        stochastic_f = l.stochastic_f + stochastic_f;
        exact_f = l.exact_f + o.f;
      })
    {
      vars = 0;
      clauses = 0;
      build_s = 0.0;
      sabre_s = 0.0;
      sabre_f = 0;
      stochastic_f = 0;
      exact_f = 0;
    }
    (distinct outcomes)

(* -- the trace ------------------------------------------------------------ *)

let layer_of_span name =
  match String.index_opt name '.' with
  | None -> name
  | Some i -> (
      match String.sub name 0 i with
      | "solver" -> "sat"
      | "minimize" -> "opt"
      | "pool" | "incumbent" -> "par"
      | p -> p)

type folded = {
  self_us : (string, float) Hashtbl.t;  (** per layer *)
  total_us : (string, float) Hashtbl.t;  (** per span name *)
  spans : (string, int) Hashtbl.t;  (** per span name *)
  stage_us : (string, float) Hashtbl.t;  (** per portfolio stage kind *)
  busy_us : float;  (** top-level spans, summed over workers *)
  bench_us : float;  (** top-level bench.* spans *)
}

let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k)
let add tbl k v = Hashtbl.replace tbl k (get tbl k +. v)

(* A span's self time is its duration minus its children's. *)
let fold_trace events =
  let self_us = Hashtbl.create 16 and total_us = Hashtbl.create 32 in
  let spans = Hashtbl.create 32 and stage_us = Hashtbl.create 4 in
  let stacks = Hashtbl.create 4 in
  let busy = ref 0.0 and bench = ref 0.0 in
  List.iter
    (fun (e : Trace.event) ->
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks e.tid) in
      match (e.ph, stack) with
      | `B, _ -> Hashtbl.replace stacks e.tid ((e, ref 0.0) :: stack)
      | `E, (b, children) :: rest ->
          let dur = e.ts_us -. b.ts_us in
          add self_us (layer_of_span b.name) (dur -. !children);
          add total_us b.name dur;
          Hashtbl.replace spans b.name
            (1 + Option.value ~default:0 (Hashtbl.find_opt spans b.name));
          (match List.assoc_opt "stage" b.args with
          | Some (Trace.Str s) when b.name = "portfolio.stage" ->
              let kind =
                if String.starts_with ~prefix:"probe:" s then "probe"
                else "ladder"
              in
              add stage_us kind dur
          | _ -> ());
          (match rest with
          | (_, parent) :: _ -> parent := !parent +. dur
          | [] ->
              busy := !busy +. dur;
              if String.starts_with ~prefix:"bench." b.name then
                bench := !bench +. dur);
          Hashtbl.replace stacks e.tid rest
      | _ -> ())
    events;
  { self_us; total_us; spans; stage_us; busy_us = !busy; bench_us = !bench }

(* -- metrics -------------------------------------------------------------- *)

let end_to_end_metrics kind ~setup_s ~wall outcomes =
  let ms = List.map (fun (o : W.outcome) -> o.seconds *. 1000.0) outcomes in
  let added, original =
    List.fold_left
      (fun (f, g) (o : W.outcome) ->
        if o.input.draw < quality_draws kind then
          ( f + o.f,
            g
            + Circuit.count_singles o.input.circuit
            + Circuit.count_cnots o.input.circuit )
        else (f, g))
      (0, 0) (distinct outcomes)
  in
  [
    ("setup_s", setup_s);
    ("map_p50_ms", percentile 0.5 ms);
    ("map_p90_ms", percentile 0.9 ms);
    ("maps_per_s", ratio (float_of_int (List.length outcomes)) wall);
    ("added_gates_pct", pct (float_of_int added) (float_of_int original));
    ("peak_rss_mb", peak_rss_mb ());
  ]

let per_layer_metrics ~swap_table_s ~delta ~layers ~outcomes ~trace ~wall_a
    ~wall_b =
  let c name = float_of_int (Metrics.count delta name) in
  let steps =
    match Metrics.find delta "minimize.step_conflicts" with
    | Some (Metrics.Buckets b) -> float_of_int (Array.fold_left ( + ) 0 b)
    | _ -> 0.0
  in
  let step_p50 =
    Metrics.quantile delta "minimize.step_conflicts" 0.5
    |> Option.value ~default:0.0
  in
  let span_s name = get trace.total_us name /. 1e6 in
  let busy_pct us = pct us trace.busy_us in
  let self layer = busy_pct (get trace.self_us layer) in
  let candidates =
    Hashtbl.find_opt trace.spans "mapper.candidate"
    |> Option.value ~default:0 |> float_of_int
  in
  let rungs, improved =
    List.fold_left
      (fun (r, i) (o : W.outcome) -> (r + o.rungs, i + o.rungs_improved))
      (0, 0) outcomes
  in
  let excess f =
    pct (float_of_int (f - layers.exact_f)) (float_of_int layers.exact_f)
  in
  let props = c "solver.propagations" in
  [
    ("sat.conflicts", c "solver.conflicts");
    ("sat.decisions", c "solver.decisions");
    ("sat.propagations", props);
    ("sat.restarts", c "solver.restarts");
    ("sat.props_per_s", ratio props (span_s "solver.solve"));
    ("sat.minor_words_per_prop", ratio (c "solver.minor_words") props);
    ("sat.arena_collections", c "solver.arena_collections");
    ("sat.self_pct", self "sat");
    ("opt.solves", steps);
    ("opt.step_conflicts_p50", step_p50);
    ("opt.self_pct", self "opt");
    ("encode.vars", float_of_int layers.vars);
    ("encode.clauses", float_of_int layers.clauses);
    ("encode.build_s", layers.build_s);
    ("mapper.encode_s", span_s "mapper.encode");
    ("mapper.warm_start_s", span_s "mapper.warm_start");
    ("mapper.solve_s", span_s "mapper.solve");
    ("mapper.reconstruct_s", span_s "mapper.reconstruct");
    ("mapper.verify_s", span_s "mapper.verify");
    ("mapper.candidates", candidates);
    ("mapper.pruned_frac", ratio (c "mapper.candidates_pruned") candidates);
    ("mapper.ladder_reuse_hits", c "mapper.ladder_reuse_hits");
    ("mapper.self_pct", self "mapper");
    ("portfolio.rungs", float_of_int rungs);
    ( "portfolio.improve_frac",
      ratio (float_of_int improved) (float_of_int rungs) );
    ("portfolio.probe_pct", busy_pct (get trace.stage_us "probe"));
    ("portfolio.ladder_pct", busy_pct (get trace.stage_us "ladder"));
    ( "portfolio.cascade_pct",
      busy_pct (get trace.total_us "portfolio.heuristic_lane") );
    ("portfolio.self_pct", self "portfolio");
    ("heuristic.sabre_s", layers.sabre_s);
    ("heuristic.sabre_excess_pct", excess layers.sabre_f);
    ("heuristic.stochastic_excess_pct", excess layers.stochastic_f);
    ("svc.hit_frac", ratio (c "svc.cache_hits_served") (c "svc.requests"));
    ("svc.sheds", c "svc.sheds");
    ("svc.retries", c "svc.retries");
    ("svc.cache_evictions", c "svc.cache_evictions");
    ("svc.self_pct", self "svc");
    ("par.pool_tasks", c "par.pool_tasks");
    ("par.incumbent_updates", c "par.incumbent_updates");
    ("arch.swap_table_s", swap_table_s);
    ("obs.trace_overhead_pct", pct (wall_b -. wall_a) wall_a);
    ("obs.span_coverage_pct", pct trace.bench_us (wall_b *. 1e6));
  ]

(* -- checks --------------------------------------------------------------- *)

let expected_file = "qxbench/expected/seed0.json"

let int_rows = function
  | Some (Sjson.Obj rows) ->
      List.filter_map
        (fun (id, v) -> Option.map (fun f -> (id, f)) (Sjson.to_int_opt v))
        rows
  | _ -> []

(* Pinned F per draw-0 row at seed 0: the triangle optimum (restricted)
   and the proven minimum (minimal, service), which may never exceed it.
   Anytime answers are not pinned: under conflict limits they are
   incumbents, which a better search may legitimately change. *)
let check_expected kind outcomes =
  match
    Sjson.parse (In_channel.with_open_bin expected_file In_channel.input_all)
  with
  | exception Sys_error e -> [ e ]
  | Error e -> [ expected_file ^ ": " ^ e ]
  | Ok j ->
      let triangle = int_rows (Sjson.member "triangle" j) in
      let minimal = int_rows (Sjson.member "minimal" j) in
      let inconsistent =
        List.filter_map
          (fun (id, f) ->
            match List.assoc_opt id triangle with
            | Some t when f > t ->
                Some
                  (Printf.sprintf "%s: pinned minimal F %d > triangle F %d" id
                     f t)
            | _ -> None)
          minimal
      in
      let against pinned what =
        List.filter_map
          (fun (o : W.outcome) ->
            match List.assoc_opt o.input.id pinned with
            | Some f when o.failure = None && o.f <> f ->
                Some
                  (Printf.sprintf "%s: F %d, pinned %s F %d" o.input.id o.f
                     what f)
            | _ -> None)
          outcomes
      in
      inconsistent
      @
      match kind with
      | W.Restricted -> against triangle "triangle"
      | W.Minimal | W.Service -> against minimal "minimal"
      | W.Anytime -> []

(* Every answer for one input has the same F. *)
let check_repeats outcomes =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun (o : W.outcome) ->
      if o.failure <> None then None
      else
        match Hashtbl.find_opt seen o.input.id with
        | Some f when f <> o.f ->
            Some (Printf.sprintf "%s: answered F %d and F %d" o.input.id f o.f)
        | Some _ -> None
        | None ->
            Hashtbl.add seen o.input.id o.f;
            None)
    outcomes

(* Mapper reports sum the solver counters of every search they ran; at
   jobs 1 the registry must agree. *)
let check_registry kind delta outcomes =
  match kind with
  | W.Restricted | W.Minimal ->
      let reported =
        List.fold_left
          (fun a (o : W.outcome) -> a + o.report_conflicts)
          0 outcomes
      in
      let registry = Metrics.count delta "solver.conflicts" in
      if reported = registry then []
      else
        [
          Printf.sprintf "report conflicts %d <> registry solver.conflicts %d"
            reported registry;
        ]
  | W.Anytime | W.Service -> []

(* Paper Ex. 7: Fig. 1a maps onto QX4 with F = 4. *)
let check_fig1a () =
  let input =
    { W.id = "fig1a"; draw = 0; circuit = Qxm_benchmarks.Examples.fig1a }
  in
  match W.map_one W.Minimal input with
  | { failure = Some e; _ } -> [ "fig1a: " ^ e ]
  | { f = 4; _ } -> []
  | { f; _ } -> [ Printf.sprintf "fig1a: F %d, paper F 4" f ]

(* -- one workload --------------------------------------------------------- *)

type args = {
  workload : W.kind option;
  seed : int;
  seconds : float;
  trace : bool;
  trace_out : string option;
}

let num i = Sjson.Num (float_of_int i)

let json_metrics catalogue values =
  Sjson.Obj
    (List.map
       (fun (n, unit) ->
         ( n,
           Sjson.Obj
             [
               ("value", Sjson.Num (List.assoc n values));
               ("unit", Sjson.Str unit);
             ] ))
       catalogue)

(* Untraced: map until [args.seconds] have passed.  Sequential runs stop
   only between passes, so every profile is mapped equally often, and
   never before the quality draws are mapped, whatever the machine's
   speed. *)
let measure args kind p ~setup_s =
  let deadline = now () +. args.seconds in
  let stop i =
    i >= quality_calls kind && i mod p.per_pass = 0 && now () >= deadline
  in
  let before = Metrics.snapshot () in
  let t0 = now () in
  let outcomes = run_ops kind p.ops ~daemon:p.daemon ~stop in
  let wall = now () -. t0 in
  let delta = Metrics.diff (Metrics.snapshot ()) before in
  (outcomes, end_to_end_metrics kind ~setup_s ~wall outcomes, wall, delta)

(* Traced: the same [traced_calls] twice, untraced and then traced, each
   followed by the bench-side layer passes. *)
let measure_traced args kind p ~swap_table_s =
  let once daemon =
    let before = Metrics.snapshot () in
    let t0 = now () in
    let outcomes =
      run_ops kind p.ops ~daemon ~stop:(fun i -> i >= traced_calls kind)
    in
    let layers = layer_pass kind outcomes in
    let wall = now () -. t0 in
    (outcomes, layers, wall, Metrics.diff (Metrics.snapshot ()) before)
  in
  let outcomes, layers, wall_a, delta = once p.daemon in
  (* the traced replay starts from a cold daemon cache, as the first did *)
  let daemon = Option.map (fun _ -> W.start_daemon ()) p.daemon in
  Trace.reset ();
  Trace.enable ();
  let _, _, wall_b, _ = once daemon in
  Trace.disable ();
  Option.iter Daemon.shutdown daemon;
  Option.iter
    (fun dir ->
      (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
      Trace.write_chrome (Filename.concat dir (W.name kind ^ ".trace.json")))
    args.trace_out;
  let trace = fold_trace (Trace.events ()) in
  Trace.reset ();
  let values =
    per_layer_metrics ~swap_table_s ~delta ~layers ~outcomes ~trace ~wall_a
      ~wall_b
  in
  (outcomes, values, wall_a, delta)

let run_workload args kind =
  let startup_problems =
    (match check_catalogue "BENCHMARK.json" with
    | Ok () -> []
    | Error e -> [ e ])
    @ check_fig1a ()
  in
  Metrics.reset ();
  let p, setup_s, swap_table_s = setup kind ~seed:args.seed in
  let outcomes, values, wall, delta =
    if args.trace then measure_traced args kind p ~swap_table_s
    else measure args kind p ~setup_s
  in
  Option.iter Daemon.shutdown p.daemon;
  let call_failures =
    List.filter_map
      (fun (o : W.outcome) ->
        Option.map (fun e -> Printf.sprintf "%s: %s" o.input.id e) o.failure)
      outcomes
  in
  let failures =
    call_failures @ startup_problems
    @ (if args.seed = 0 then check_expected kind outcomes else [])
    @ check_repeats outcomes
    @ check_registry kind delta outcomes
  in
  List.iter (Printf.eprintf "qxbench %s: %s\n%!" (W.name kind)) failures;
  let n = List.length outcomes and failed = List.length failures in
  let catalogue = if args.trace then per_layer else end_to_end in
  (* Every mapping call runs at jobs 1; the service's daemon has
     [workers] worker domains. *)
  let jobs = 1 in
  let workers = if kind = W.Service then W.daemon_config.jobs else 1 in
  let nproc = Domain.recommended_domain_count () in
  Printf.printf
    "qxbench %s  seed %d  trace %b  jobs %d  workers %d  ocaml %s  nproc %d  \
     git %s\n"
    (W.name kind) args.seed args.trace jobs workers Sys.ocaml_version nproc
    (git_head ());
  Printf.printf "  %d mappings in %.2f s, %d failed\n" n wall failed;
  List.iter
    (fun (name, unit) ->
      let note =
        match name with
        | "map_p50_ms" | "map_p90_ms" -> Printf.sprintf "  (n = %d)" n
        | "setup_s" -> Printf.sprintf "  (median of %d)" setup_repeats
        | _ -> ""
      in
      Printf.printf "  %-32s %14.6g %s%s\n" name (List.assoc name values) unit
        note)
    catalogue;
  let rows =
    List.map
      (fun (o : W.outcome) -> (o.input.id, num o.f))
      (distinct outcomes)
  in
  print_endline
    (Sjson.print
       (Sjson.Obj
          [
            ("workload", Sjson.Str (W.name kind));
            ("seed", num args.seed);
            ("jobs", num jobs);
            ("workers", num workers);
            ("git", Sjson.Str (git_head ()));
            ("ocaml", Sjson.Str Sys.ocaml_version);
            ("nproc", num nproc);
            ("trace", Sjson.Bool args.trace);
            ("samples", num n);
            ("wall_s", Sjson.Num wall);
            ("rows", Sjson.Obj rows);
            ("failures", Sjson.List (List.map (fun e -> Sjson.Str e) failures));
          ]));
  print_endline
    (Sjson.print
       (Sjson.Obj
          [
            ("correct", Sjson.Bool (failed = 0));
            ("attempted", num n);
            ("failed", num failed);
            ("metrics", json_metrics catalogue values);
          ]));
  exit (if failed = 0 then 0 else 1)

(* -- every workload ------------------------------------------------------- *)

(* The inputs the workloads share: Minimal's permutation spots are a
   superset of the triangle strategy's, so no proven minimum (minimal,
   service) may cost more than the triangle optimum of the same circuit. *)
let cross_check details =
  let rows kind =
    match List.assoc_opt kind details with
    | Some (Some j) -> int_rows (Sjson.member "rows" j)
    | _ -> []
  in
  let triangle = rows W.Restricted in
  List.concat_map
    (fun kind ->
      List.filter_map
        (fun (id, f) ->
          match List.assoc_opt id triangle with
          | Some t when f > t ->
              Some
                (Printf.sprintf "%s %s: F %d > triangle F %d" (W.name kind) id
                   f t)
          | _ -> None)
        (rows kind))
    [ W.Minimal; W.Service ]

(* One child process per workload; its stdout is passed through, and its
   second-to-last line is the detail object with the rows. *)
let run_child args kind =
  let argv =
    [
      Sys.executable_name; "--workload"; W.name kind; "--seed";
      string_of_int args.seed; "--seconds"; Printf.sprintf "%g" args.seconds;
      "--trace"; (if args.trace then "1" else "0");
    ]
    @ match args.trace_out with Some d -> [ "--trace-out"; d ] | None -> []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin wr
      Unix.stderr
  in
  Unix.close wr;
  let out = In_channel.input_all (Unix.in_channel_of_descr rd) in
  Unix.close rd;
  let _, status = Unix.waitpid [] pid in
  print_string out;
  let detail =
    match List.rev (String.split_on_char '\n' (String.trim out)) with
    | _ :: d :: _ -> Result.to_option (Sjson.parse d)
    | _ -> None
  in
  (status = Unix.WEXITED 0, detail)

let run_all args =
  let results = List.map (fun kind -> (kind, run_child args kind)) W.all in
  let failed =
    List.filter_map
      (fun (k, (ok, _)) -> if ok then None else Some (W.name k))
      results
  in
  let cross = cross_check (List.map (fun (k, (_, d)) -> (k, d)) results) in
  List.iter (Printf.eprintf "qxbench: %s\n") cross;
  if failed <> [] then
    Printf.eprintf "qxbench: failed workloads: %s\n"
      (String.concat ", " failed);
  let ok = failed = [] && cross = [] in
  Printf.printf "qxbench: %d workloads, %s\n" (List.length results)
    (if ok then "all outputs correct" else "FAILED");
  exit (if ok then 0 else 1)

let () =
  let workload = ref None and seed = ref 0 and seconds = ref 25.0 in
  let trace = ref 0 and trace_out = ref None in
  let set_workload s =
    match W.of_name s with
    | Some k -> workload := Some k
    | None -> raise (Arg.Bad ("unknown workload " ^ s))
  in
  let spec =
    [
      ( "--workload",
        Arg.String set_workload,
        "W one of restricted, minimal, anytime, service (default: all)" );
      ("--seed", Arg.Set_int seed, "N input seed (default 0)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (default 25)");
      ("--trace", Arg.Set_int trace, "0|1 1: traced run, per-layer metrics");
      ( "--trace-out",
        Arg.String (fun d -> trace_out := Some d),
        "DIR with --trace 1, write DIR/<workload>.trace.json" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "qxbench [options]";
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "qxbench: --trace takes 0 or 1";
    exit 2
  end;
  let args =
    {
      workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      trace_out = !trace_out;
    }
  in
  match args.workload with
  | Some kind -> run_workload args kind
  | None -> run_all args
