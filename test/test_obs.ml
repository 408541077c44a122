(* Tests for the observability layer: the metrics registry (snapshot /
   diff / merge algebra, and its agreement with [Solver.add_stats]-style
   aggregation), the span tracer (per-worker well-nested events, Chrome
   export shape, disabled-mode cost), and the live progress hooks (the
   solver's 64-conflict cadence and the minimizer's objective
   trajectory). *)

open Test_util
module Trace = Qxm_obs.Trace
module Metrics = Qxm_obs.Metrics
module Timeseries = Qxm_obs.Timeseries
module Flight = Qxm_obs.Flight
module Solver = Qxm_sat.Solver
module Lit = Qxm_sat.Lit
module Cnf = Qxm_encode.Cnf
module Minimize = Qxm_opt.Minimize
module Mapper = Qxm_exact.Mapper
module Portfolio = Qxm_exact.Portfolio
module Strategy = Qxm_exact.Strategy
module Devices = Qxm_arch.Devices
module Examples = Qxm_benchmarks.Examples
module Suite = Qxm_benchmarks.Suite

(* -- stats monoid --------------------------------------------------------- *)

let stats_gen =
  let open QCheck2.Gen in
  let f = int_range 0 1_000_000 in
  let* conflicts = f in
  let* decisions = f in
  let* propagations = f in
  let* restarts = f in
  let* learnt_literals = f in
  let* clock_polls = f in
  let* minimized_lits = f in
  let* binary_propagations = f in
  let* glue_1 = f in
  let* glue_2 = f in
  let* glue_3_4 = f in
  let* glue_5_8 = f in
  let* glue_9_plus = f in
  let* minor_words = f in
  let* arena_collections = f in
  let* arena_relocations = f in
  return
    {
      Solver.conflicts;
      decisions;
      propagations;
      restarts;
      learnt_literals;
      clock_polls;
      minimized_lits;
      binary_propagations;
      glue_1;
      glue_2;
      glue_3_4;
      glue_5_8;
      glue_9_plus;
      minor_words;
      arena_collections;
      arena_relocations;
    }

let stats_eq a b = Solver.stats_counters a = Solver.stats_counters b

let add_stats_assoc =
  qtest ~count:100 "add_stats is associative"
    QCheck2.Gen.(triple stats_gen stats_gen stats_gen)
    (fun (a, b, c) ->
      stats_eq
        (Solver.add_stats a (Solver.add_stats b c))
        (Solver.add_stats (Solver.add_stats a b) c))

let add_stats_comm =
  qtest ~count:100 "add_stats is commutative"
    QCheck2.Gen.(pair stats_gen stats_gen)
    (fun (a, b) -> stats_eq (Solver.add_stats a b) (Solver.add_stats b a))

let add_stats_unit =
  qtest ~count:100 "zero_stats is the unit of add_stats" stats_gen (fun a ->
      stats_eq (Solver.add_stats a Solver.zero_stats) a
      && stats_eq (Solver.add_stats Solver.zero_stats a) a)

let test_stats_counters_shape () =
  let counters = Solver.stats_counters Solver.zero_stats in
  let names = List.map fst counters in
  Alcotest.(check int) "16 counter fields" 16 (List.length names);
  Alcotest.(check int) "field names are unique" 16
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (name, v) -> Alcotest.(check int) (name ^ " is zero") 0 v)
    counters

(* The load-bearing registry contract: reading [Solver.stats] publishes
   watermark deltas, so the [solver.*] counters accumulated across any
   number of independent solver instances equal the field-wise
   [add_stats] aggregation of their final stats. *)
let registry_matches_aggregation =
  qtest ~count:20 "registry solver.* totals equal add_stats aggregation"
    QCheck2.Gen.(
      list_size (int_range 1 3) (cnf_gen ~max_vars:8 ~max_clauses:30 ~max_len:4))
    (fun instances ->
      let before = Metrics.snapshot () in
      let total =
        List.fold_left
          (fun acc (nvars, clauses) ->
            let s = solver_with nvars in
            List.iter (Solver.add_clause s) clauses;
            ignore (Solver.solve s);
            Solver.add_stats acc (Solver.stats s))
          Solver.zero_stats instances
      in
      let window = Metrics.diff (Metrics.snapshot ()) before in
      List.for_all
        (fun (name, v) -> Metrics.count window ("solver." ^ name) = v)
        (Solver.stats_counters total))

(* The portfolio's [sat_stats] covers every exact stage, including ladder
   rungs that failed with [Timeout] or [Unmappable]: it equals the
   [solver.*] registry delta of the whole call.  On alu-v1_28 both
   conflict-limited rungs exhaust their budget. *)
let test_portfolio_stats_match_registry () =
  let e = Option.get (Suite.by_name "alu-v1_28") in
  let options =
    {
      Portfolio.default with
      exact = { Mapper.default with strategy = Strategy.Minimal; jobs = 1 };
      ladder = [ 500; 2000 ];
      jobs = 1;
    }
  in
  let before = Metrics.snapshot () in
  match Portfolio.run ~options ~arch:Devices.qx4 e.circuit with
  | Error err -> Alcotest.failf "%a" Portfolio.pp_failure err
  | Ok r ->
      let window = Metrics.diff (Metrics.snapshot ()) before in
      Alcotest.(check int) "conflicts = registry delta"
        (Metrics.count window "solver.conflicts")
        r.sat_stats.conflicts;
      Alcotest.(check int) "propagations = registry delta"
        (Metrics.count window "solver.propagations")
        r.sat_stats.propagations

(* -- metrics registry ----------------------------------------------------- *)

(* Taken while this module initializes: the library modules are linked,
   and so initialized, before any test module, and before any test runs. *)
let startup_names = List.map fst (Metrics.snapshot ())

(* Every handle the library registers.  They are registered eagerly at
   module initialization: a handle first created on use could race
   between domains. *)
let library_handles =
  List.map (fun (name, _) -> "solver." ^ name)
    (Solver.stats_counters Solver.zero_stats)
  @ [
      "solver.arena_words"; "pb.outputs"; "pb.clauses";
      "minimize.step_conflicts"; "minimize.seed_rejected";
      "mapper.candidates_pruned"; "mapper.ladder_reuse_hits";
      "portfolio.ladder_conflict_budget"; "par.incumbent_updates";
      "par.pool_queue_depth"; "par.pool_tasks"; "obs.flight_dumps";
      "obs.flight_dump_errors"; "svc.sheds"; "svc.queue_depth";
      "svc.queue_depth_hwm"; "svc.admission_imbalance"; "svc.requests";
      "svc.done"; "svc.failed"; "svc.rejected";
      "svc.deadline_expiries"; "svc.watchdog_cancels";
      "svc.cache_verify_rejects"; "svc.cache_hits_served";
      "svc.certificates_emitted"; "svc.certificate_failures";
      "svc.cache_hits_mem"; "svc.cache_hits_disk"; "svc.cache_misses";
      "svc.cache_stores"; "svc.cache_store_errors"; "svc.cache_evictions";
      "svc.cache_quarantined";
    ]

let test_handles_registered_at_startup () =
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " registered at start-up") true
        (List.mem name startup_names))
    library_handles

let test_metrics_counter () =
  let c = Metrics.counter "test.obs_counter" in
  let before = Metrics.snapshot () in
  Metrics.add c 5;
  Metrics.incr c;
  let d = Metrics.diff (Metrics.snapshot ()) before in
  Alcotest.(check int) "counter delta" 6 (Metrics.count d "test.obs_counter");
  (* registration is idempotent: the same cell comes back *)
  Metrics.incr (Metrics.counter "test.obs_counter");
  let d = Metrics.diff (Metrics.snapshot ()) before in
  Alcotest.(check int) "same cell" 7 (Metrics.count d "test.obs_counter")

let test_metrics_gauge () =
  let g = Metrics.gauge "test.obs_gauge" in
  let level () =
    match Metrics.find (Metrics.snapshot ()) "test.obs_gauge" with
    | Some (Metrics.Level v) -> v
    | _ -> Alcotest.fail "gauge missing from snapshot"
  in
  Metrics.set_gauge g 3.0;
  Metrics.max_gauge g 2.0;
  Alcotest.(check (float 1e-9)) "max_gauge keeps the high-water mark" 3.0
    (level ());
  Metrics.max_gauge g 7.5;
  Alcotest.(check (float 1e-9)) "max_gauge raises" 7.5 (level ())

let test_metrics_histogram () =
  let h = Metrics.histogram "test.obs_histogram" in
  let before = Metrics.snapshot () in
  List.iter (Metrics.observe h) [ 0; 1; 2; 3; 1024 ];
  let d = Metrics.diff (Metrics.snapshot ()) before in
  match Metrics.find d "test.obs_histogram" with
  | Some (Metrics.Buckets b) ->
      Alcotest.(check int) "bucket 0 counts v <= 0" 1 b.(0);
      Alcotest.(check int) "bucket 1 counts v = 1" 1 b.(1);
      Alcotest.(check int) "bucket 2 counts 2..3" 2 b.(2);
      Alcotest.(check int) "bucket 11 counts 1024" 1 b.(11);
      Alcotest.(check int) "one increment per observation" 5
        (Array.fold_left ( + ) 0 b)
  | _ -> Alcotest.fail "histogram missing from snapshot"

let test_metrics_kind_clash () =
  ignore (Metrics.counter "test.obs_kind_clash");
  match Metrics.gauge "test.obs_kind_clash" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "re-registering under another kind must fail"

(* Synthetic snapshots over a fixed name pool (one kind per name, equal
   bucket lengths) — the domain on which merge is a commutative monoid. *)
let snapshot_gen =
  let open QCheck2.Gen in
  let count =
    let* n = int_range 0 1000 in
    return (Metrics.Count n)
  in
  let level =
    let* f = float_bound_inclusive 100.0 in
    return (Metrics.Level f)
  in
  let buckets =
    let* l = list_size (return 4) (int_range 0 50) in
    return (Metrics.Buckets (Array.of_list l))
  in
  let* a = opt count in
  let* b = opt level in
  let* c = opt buckets in
  return
    (List.filter_map Fun.id
       [
         Option.map (fun v -> ("a.count", v)) a;
         Option.map (fun v -> ("b.level", v)) b;
         Option.map (fun v -> ("c.buckets", v)) c;
       ])

let merge_assoc =
  qtest ~count:100 "merge is associative"
    QCheck2.Gen.(triple snapshot_gen snapshot_gen snapshot_gen)
    (fun (a, b, c) ->
      Metrics.merge a (Metrics.merge b c)
      = Metrics.merge (Metrics.merge a b) c)

let merge_comm =
  qtest ~count:100 "merge is commutative"
    QCheck2.Gen.(pair snapshot_gen snapshot_gen)
    (fun (a, b) -> Metrics.merge a b = Metrics.merge b a)

let merge_unit =
  qtest ~count:100 "the empty snapshot is the unit of merge" snapshot_gen
    (fun s -> Metrics.merge s [] = s && Metrics.merge [] s = s)

let diff_self_zero =
  qtest ~count:100 "diff of a snapshot with itself zeroes counters"
    snapshot_gen (fun s ->
      List.for_all
        (fun (_, v) ->
          match v with
          | Metrics.Count n -> n = 0
          | Metrics.Level _ -> true
          | Metrics.Buckets b -> Array.for_all (fun x -> x = 0) b)
        (Metrics.diff s s))

(* -- tracer --------------------------------------------------------------- *)

let with_tracing f =
  Trace.reset ();
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
    f

(* Replay an event stream and fail on any violation of the export
   contract: events grouped by tid (a group never reopens), timestamps
   non-decreasing within a group, B/E properly nested, nothing left
   open. *)
let check_well_formed events =
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let last_ts : (int, float) Hashtbl.t = Hashtbl.create 8 in
  let closed_groups = Hashtbl.create 8 in
  let current = ref None in
  List.iter
    (fun (e : Trace.event) ->
      (match !current with
      | Some t when t = e.tid -> ()
      | prev ->
          if Hashtbl.mem closed_groups e.tid then
            Alcotest.failf "tid %d appears in two separate groups" e.tid;
          Option.iter (fun t -> Hashtbl.replace closed_groups t true) prev;
          current := Some e.tid);
      let prev_ts =
        Option.value (Hashtbl.find_opt last_ts e.tid) ~default:neg_infinity
      in
      if e.ts_us < prev_ts then
        Alcotest.failf "tid %d: timestamp goes backwards" e.tid;
      Hashtbl.replace last_ts e.tid e.ts_us;
      let stack = Option.value (Hashtbl.find_opt stacks e.tid) ~default:[] in
      match e.ph with
      | `B -> Hashtbl.replace stacks e.tid (e.name :: stack)
      | `E -> (
          match stack with
          | top :: rest when top = e.name -> Hashtbl.replace stacks e.tid rest
          | top :: _ ->
              Alcotest.failf "tid %d: E %S closes inside open span %S" e.tid
                e.name top
          | [] -> Alcotest.failf "tid %d: E %S with no open span" e.tid e.name)
      | `I | `C -> ())
    events;
  Hashtbl.iter
    (fun tid stack ->
      if stack <> [] then
        Alcotest.failf "tid %d: %d span(s) left open" tid (List.length stack))
    stacks

let test_trace_disabled_records_nothing () =
  Trace.disable ();
  Trace.reset ();
  Trace.with_span ~name:"ghost" (fun () -> Trace.instant "ghost.tick");
  Alcotest.(check int) "no events buffered" 0 (List.length (Trace.events ()))

let test_trace_nesting_across_domains () =
  with_tracing (fun () ->
      let worker i () =
        for _ = 1 to 5 do
          Trace.with_span ~name:"outer"
            ~args:[ ("worker", Trace.Int i) ]
            (fun () ->
              Trace.with_span ~name:"inner" (fun () -> Trace.instant "tick"))
        done
      in
      Trace.with_span ~name:"main" (fun () -> worker 0 ());
      let domains = List.init 2 (fun i -> Domain.spawn (worker (i + 1))) in
      List.iter Domain.join domains;
      let events = Trace.events () in
      check_well_formed events;
      let tids =
        List.sort_uniq compare
          (List.map (fun (e : Trace.event) -> e.tid) events)
      in
      Alcotest.(check bool) "three recording domains" true
        (List.length tids >= 3);
      let count ph =
        List.length (List.filter (fun (e : Trace.event) -> e.ph = ph) events)
      in
      Alcotest.(check int) "every B has an E" (count `B) (count `E);
      Alcotest.(check int) "one instant per inner span" 15 (count `I))

let test_trace_exception_closes_span () =
  with_tracing (fun () ->
      (try Trace.with_span ~name:"boom" (fun () -> raise Exit)
       with Exit -> ());
      let events = Trace.events () in
      check_well_formed events;
      Alcotest.(check int) "B and E despite the raise" 2 (List.length events))

let test_trace_reset_drops_events () =
  with_tracing (fun () ->
      Trace.with_span ~name:"before" (fun () -> ());
      Trace.reset ();
      Trace.with_span ~name:"after" (fun () -> ());
      let names =
        List.sort_uniq compare
          (List.map (fun (e : Trace.event) -> e.name) (Trace.events ()))
      in
      Alcotest.(check (list string)) "only post-reset events" [ "after" ]
        names)

let test_chrome_export_shape () =
  with_tracing (fun () ->
      Trace.with_span ~name:"alpha"
        ~args:[ ("s", Trace.Str "quote\"and\nnewline"); ("n", Trace.Int 3) ]
        (fun () -> Trace.instant "mark");
      let doc = Trace.to_chrome_string () in
      let lines =
        List.filter
          (fun l -> String.trim l <> "")
          (String.split_on_char '\n' doc)
      in
      (match lines with
      | first :: rest ->
          Alcotest.(check string) "wrapper opens" "{\"traceEvents\": [" first;
          let rec split_last acc = function
            | [ last ] -> (List.rev acc, last)
            | x :: tl -> split_last (x :: acc) tl
            | [] -> Alcotest.fail "no closing line"
          in
          let body, last = split_last [] rest in
          Alcotest.(check string) "wrapper closes" "]}" last;
          Alcotest.(check int) "one line per event" 3 (List.length body);
          List.iter
            (fun line ->
              let line =
                if String.length line > 0 && line.[String.length line - 1] = ','
                then String.sub line 0 (String.length line - 1)
                else line
              in
              Alcotest.(check bool) "event line is an object" true
                (String.length line > 1
                && line.[0] = '{'
                && line.[String.length line - 1] = '}');
              Alcotest.(check bool) "event line has a name field" true
                (contains_substring line "\"name\": \""))
            body
      | [] -> Alcotest.fail "empty chrome document");
      (* escaping: the raw quote and newline never reach the document *)
      Alcotest.(check bool) "quote escaped" true
        (contains_substring doc "quote\\\"and\\nnewline"))

(* A disabled observability layer must be close to free: the
   instrumented warm paths (one span per solve / candidate / task, one
   sampler call per 64-conflict progress tick) stay out of the
   benchmarks.  The wrapped closure mirrors the solver's actual hot
   path: span entry/exit, a sampler call gated on [Timeseries.enabled]
   (so argument evaluation is skipped), context labelling, and the
   flight recorder's gate.  Generous allowances keep this a smoke test,
   not a microbenchmark. *)
let test_trace_disabled_overhead () =
  Trace.disable ();
  Trace.reset ();
  Timeseries.disable ();
  Flight.disable ();
  let work () =
    let s = ref 0 in
    for i = 1 to 100 do
      s := !s + i
    done;
    Sys.opaque_identity !s
  in
  let n = 200_000 in
  let time f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      ignore (f ())
    done;
    Unix.gettimeofday () -. t0
  in
  ignore (time work) (* warm up *);
  let bare = time work in
  let wrapped =
    time (fun () ->
        Trace.with_span ~name:"overhead" @@ fun () ->
        Timeseries.with_label "stage=off" @@ fun () ->
        if Timeseries.enabled () then
          Timeseries.sample ~conflicts:0 ~decisions:0 ~propagations:0
            ~restarts:0 ~trail:0 ~learnts:0 ~learnt_core:0 ~mean_lbd:0.0
            ~arena_words:0;
        ignore (Sys.opaque_identity (Flight.enabled ()));
        work ())
  in
  Alcotest.(check bool)
    (Printf.sprintf
       "disabled span+sampler+flight within 10%% + noise (bare %.3fs, \
        wrapped %.3fs)"
       bare wrapped)
    true
    (wrapped <= (bare *. 1.10) +. 0.25)

(* -- time-series sampler -------------------------------------------------- *)

(* Pigeonhole formula: n+1 pigeons, n holes — enough conflicts to cross
   the progress cadence many times. *)
let php n =
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
        Solver.add_clause s [ Lit.negate (v p1 h); Lit.negate (v p2 h) ]
      done
    done
  done;
  s

(* The decimating ring's contract under any push count: bounded storage,
   push order preserved, the first and most recent pushes always
   survive, and the stride doubles instead of creeping. *)
let ring_decimation =
  qtest ~count:200 "Timeseries.Ring: decimation keeps first/last, order, bound"
    QCheck2.Gen.(pair (int_range 1 40) (int_range 0 600))
    (fun (capacity, n) ->
      let r = Timeseries.Ring.create capacity in
      for i = 1 to n do
        Timeseries.Ring.push r i
      done;
      let contents = Timeseries.Ring.contents r in
      let capacity = max 4 capacity in
      let rec ascending = function
        | a :: (b :: _ as tl) -> a < b && ascending tl
        | _ -> true
      in
      Timeseries.Ring.pushed r = n
      && List.length contents <= capacity + 1
      && ascending contents
      && (Timeseries.Ring.stride r = 1
         || Timeseries.Ring.stride r mod 2 = 0)
      &&
      match contents with
      | [] -> n = 0
      | first :: _ ->
          first = 1 && List.nth contents (List.length contents - 1) = n)

(* End to end through the solver: with the sampler on, a conflict-heavy
   solve feeds samples at the progress cadence, each carrying the
   ambient label and bound plus the extended search-state fields. *)
let test_timeseries_solver_sampling () =
  Timeseries.enable ();
  Fun.protect
    ~finally:(fun () ->
      Timeseries.disable ();
      Timeseries.reset ())
    (fun () ->
      Timeseries.with_label "stage=test" (fun () ->
          Timeseries.set_bound 7;
          Fun.protect
            ~finally:(fun () -> Timeseries.set_bound (-1))
            (fun () ->
              match Solver.solve (php 5) with
              | Solver.Unsat -> ()
              | _ -> Alcotest.fail "pigeonhole must be unsatisfiable"));
      let samples = Timeseries.samples () in
      Alcotest.(check bool) "several samples recorded" true
        (List.length samples >= 2);
      ignore
        (List.fold_left
           (fun (prev_ts, prev_c) (s : Timeseries.sample) ->
             Alcotest.(check bool) "timestamps monotone" true
               (s.ts_us >= prev_ts);
             Alcotest.(check bool) "conflicts non-decreasing" true
               (s.conflicts >= prev_c);
             Alcotest.(check string) "ambient label carried" "stage=test"
               s.label;
             Alcotest.(check int) "ambient bound carried" 7 s.bound;
             Alcotest.(check bool) "search-state fields plausible" true
               (s.trail >= 0 && s.learnts >= 0
               && s.learnt_core <= s.learnts
               && s.mean_lbd >= 0.0 && s.arena_words >= 0
               && s.decisions >= 0 && s.propagations >= 0
               && s.restarts >= 0);
             (s.ts_us, s.conflicts))
           (neg_infinity, -1) samples);
      (* export shape: every sample becomes a C event named
         solver.sample, ready to merge into a trace or flight dump *)
      let events = Timeseries.to_events () in
      Alcotest.(check int) "one C event per sample" (List.length samples)
        (List.length events);
      List.iter
        (fun (e : Trace.event) ->
          Alcotest.(check string) "event name" "solver.sample" e.name;
          Alcotest.(check bool) "counter phase" true (e.ph = `C))
        events)

let test_timeseries_disabled_records_nothing () =
  Timeseries.disable ();
  Timeseries.reset ();
  Timeseries.sample ~conflicts:1 ~decisions:1 ~propagations:1 ~restarts:0
    ~trail:0 ~learnts:0 ~learnt_core:0 ~mean_lbd:0.0 ~arena_words:0;
  Alcotest.(check int) "no samples recorded" 0
    (List.length (Timeseries.samples ()))

(* -- flight recorder ------------------------------------------------------ *)

let number_field line key =
  let pat = Printf.sprintf "\"%s\": " key in
  match
    let plen = String.length pat and llen = String.length line in
    let rec scan i =
      if i + plen > llen then None
      else if String.sub line i plen = pat then Some (i + plen)
      else scan (i + 1)
    in
    scan 0
  with
  | None -> None
  | Some i ->
      let n = String.length line in
      let j = ref i in
      while
        !j < n
        &&
        match line.[!j] with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      do
        incr j
      done;
      if !j = i then None
      else float_of_string_opt (String.sub line i (!j - i))

(* Overfill a small ring through the trace sink, dump, and check the
   artifact: header first (with an honest eviction count), then events
   sorted by timestamp, exactly as many as the header claims. *)
let test_flight_dump_roundtrip () =
  Trace.disable ();
  Trace.reset ();
  Timeseries.disable ();
  Timeseries.reset ();
  let path = Filename.temp_file "qxm_flight" ".ndjson" in
  Flight.enable ~capacity:16 ~path ();
  Fun.protect
    ~finally:(fun () ->
      Flight.disable ();
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      for i = 1 to 20 do
        Trace.with_span
          ~name:(Printf.sprintf "unit.span%d" i)
          ~args:[ ("i", Trace.Int i) ]
          (fun () -> ())
      done;
      match Flight.dump ~reason:"unit-test" () with
      | None -> Alcotest.fail "dump returned None while enabled"
      | Some p ->
          Alcotest.(check string) "dump lands on the armed path" path p;
          let lines =
            In_channel.with_open_text path In_channel.input_lines
            |> List.filter (fun l -> String.trim l <> "")
          in
          (match lines with
          | header :: events ->
              Alcotest.(check bool) "header is a flight object" true
                (contains_substring header "\"flight\": 1");
              Alcotest.(check bool) "header carries the reason" true
                (contains_substring header "unit-test");
              Alcotest.(check bool) "evictions counted" true
                (match number_field header "dropped" with
                | Some d -> d > 0.0
                | None -> false);
              Alcotest.(check (option (float 0.0)))
                "header event count matches the body"
                (Some (float_of_int (List.length events)))
                (number_field header "events");
              Alcotest.(check bool) "ring bounded the body" true
                (List.length events <= 16);
              ignore
                (List.fold_left
                   (fun prev line ->
                     match number_field line "ts" with
                     | Some ts ->
                         Alcotest.(check bool) "events sorted by ts" true
                           (ts >= prev);
                         ts
                     | None -> Alcotest.failf "event line without ts: %s" line)
                   neg_infinity events)
          | [] -> Alcotest.fail "empty dump");
          (* successive dumps overwrite: last incident wins *)
          (match Flight.dump ~reason:"second" () with
          | Some _ -> ()
          | None -> Alcotest.fail "second dump failed");
          let header =
            match In_channel.with_open_text path In_channel.input_lines with
            | h :: _ -> h
            | [] -> Alcotest.fail "empty second dump"
          in
          Alcotest.(check bool) "second dump overwrote the first" true
            (contains_substring header "second"))

let test_flight_disabled_dump_is_none () =
  Flight.disable ();
  Alcotest.(check bool) "dump without enable returns None" true
    (Flight.dump ~reason:"off" () = None)

(* -- quantiles ------------------------------------------------------------ *)

let test_metrics_quantile () =
  let h = Metrics.histogram "test.obs_quantile" in
  List.iter (Metrics.observe h) (List.init 100 (fun i -> i + 1));
  let snap = Metrics.snapshot () in
  let q p =
    match Metrics.quantile snap "test.obs_quantile" p with
    | Some v -> v
    | None -> Alcotest.fail "quantile missing"
  in
  (* values 1..100 land in log2 buckets, so quantiles are interpolated
     within a power-of-two range rather than exact ranks *)
  Alcotest.(check bool) "p50 within its bucket" true
    (q 0.5 >= 32.0 && q 0.5 <= 64.0);
  Alcotest.(check bool) "p99 within its bucket" true
    (q 0.99 >= 64.0 && q 0.99 <= 128.0);
  Alcotest.(check bool) "quantile is monotone in q" true
    (q 0.1 <= q 0.5 && q 0.5 <= q 0.9 && q 0.9 <= q 0.99);
  Alcotest.(check bool) "unknown name yields None" true
    (Metrics.quantile snap "test.obs_no_such" 0.5 = None);
  (* the text rendering surfaces the same quantiles *)
  let text = Metrics.render_text snap in
  Alcotest.(check bool) "render_text shows p50/p90/p99" true
    (contains_substring text "test.obs_quantile"
    && contains_substring text "p50="
    && contains_substring text "p90="
    && contains_substring text "p99=")

(* -- progress hooks ------------------------------------------------------- *)

let test_solver_progress_cadence () =
  let s = php 5 in
  let samples_ref = ref [] in
  Solver.set_on_progress s (Some (fun p -> samples_ref := p :: !samples_ref));
  (match Solver.solve s with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "pigeonhole must be unsatisfiable");
  let samples = List.rev !samples_ref in
  Alcotest.(check bool) "several samples delivered" true
    (List.length samples >= 2);
  ignore
    (List.fold_left
       (fun prev (p : Solver.progress) ->
         Alcotest.(check bool) "cadence of at least 64 conflicts" true
           (prev < 0 || p.pr_conflicts - prev >= 64);
         Alcotest.(check bool) "counters are non-negative" true
           (p.pr_conflicts >= 0 && p.pr_decisions >= 0
          && p.pr_propagations >= 0 && p.pr_restarts >= 0);
         Alcotest.(check bool) "extended search-state fields plausible" true
           (p.pr_trail >= 0 && p.pr_learnts >= 0
          && p.pr_learnt_core >= 0
          && p.pr_learnt_core <= p.pr_learnts
          && p.pr_mean_lbd >= 0.0 && p.pr_arena_words >= 0);
         p.pr_conflicts)
       (-1) samples);
  let final = Solver.stats s in
  let last = List.nth samples (List.length samples - 1) in
  Alcotest.(check bool) "samples never overshoot the final stats" true
    (last.pr_conflicts <= final.Solver.conflicts);
  (* clearing the hook stops delivery *)
  Solver.set_on_progress s None;
  let before = List.length !samples_ref in
  ignore (Solver.solve s);
  Alcotest.(check int) "no samples after clearing" before
    (List.length !samples_ref)

let minimize_trajectory =
  qtest ~count:40 "minimize trajectory decreases strictly and ends at cost"
    QCheck2.Gen.(
      let* nvars, clauses = cnf_gen ~max_vars:6 ~max_clauses:12 ~max_len:3 in
      let* weights = list_size (return nvars) (int_range 1 5) in
      return (nvars, clauses, weights))
    (fun (nvars, clauses, weights) ->
      let s = solver_with nvars in
      let cnf = Cnf.create s in
      List.iter (Cnf.add cnf) clauses;
      let objective = List.mapi (fun v w -> (w, Lit.pos v)) weights in
      let fired = ref [] in
      let outcome =
        Minimize.minimize ~cnf ~objective
          ~on_incumbent:(fun c -> fired := c :: !fired)
          ()
      in
      let rec strictly_decreasing = function
        | a :: (b :: _ as tl) -> a > b && strictly_decreasing tl
        | _ -> true
      in
      (* the stream is empty iff there is no model, else ends at [cost] *)
      strictly_decreasing (List.rev !fired)
      &&
      match (outcome.model, outcome.cost, !fired) with
      | Some _, Some c, last :: _ -> last = c
      | None, _, [] -> true
      | _ -> false)

(* -- mapper reports ------------------------------------------------------- *)

let test_mapper_report_observability () =
  match Mapper.run ~arch:Devices.qx4 Examples.fig1a with
  | Error e -> Alcotest.failf "mapper failed: %a" Mapper.pp_failure e
  | Ok r ->
      Alcotest.(check bool) "strategy name recorded" true
        (String.length r.strategy_name > 0);
      List.iter
        (fun name ->
          match List.assoc_opt name r.phase_seconds with
          | Some v ->
              Alcotest.(check bool) (name ^ " time non-negative") true
                (v >= 0.0)
          | None -> Alcotest.failf "phase %S missing from phase_seconds" name)
        [ "encode"; "warm_start"; "solve"; "reconstruct"; "verify" ];
      Alcotest.(check bool) "trajectory recorded" true (r.trajectory <> []);
      let rec check prev_t prev_c = function
        | [] -> ()
        | (t, c) :: tl ->
            Alcotest.(check bool) "trajectory times non-decreasing" true
              (t >= prev_t);
            Alcotest.(check bool) "trajectory costs strictly decreasing" true
              (c < prev_c);
            check t c tl
      in
      check 0.0 max_int r.trajectory;
      let _, last_cost = List.nth r.trajectory (List.length r.trajectory - 1) in
      Alcotest.(check bool) "trajectory ends at or above the emitted cost"
        true
        (last_cost >= r.objective_cost)

let suite =
  [
    add_stats_assoc;
    add_stats_comm;
    add_stats_unit;
    Alcotest.test_case "stats_counters covers every field" `Quick
      test_stats_counters_shape;
    registry_matches_aggregation;
    Alcotest.test_case "portfolio sat_stats = registry delta" `Slow
      test_portfolio_stats_match_registry;
    Alcotest.test_case "metrics: library handles registered at start-up"
      `Quick test_handles_registered_at_startup;
    Alcotest.test_case "metrics: counter" `Quick test_metrics_counter;
    Alcotest.test_case "metrics: gauge high-water mark" `Quick
      test_metrics_gauge;
    Alcotest.test_case "metrics: log2 histogram buckets" `Quick
      test_metrics_histogram;
    Alcotest.test_case "metrics: kind clash rejected" `Quick
      test_metrics_kind_clash;
    merge_assoc;
    merge_comm;
    merge_unit;
    diff_self_zero;
    Alcotest.test_case "trace: disabled records nothing" `Quick
      test_trace_disabled_records_nothing;
    Alcotest.test_case "trace: well-nested across domains" `Quick
      test_trace_nesting_across_domains;
    Alcotest.test_case "trace: exception closes span" `Quick
      test_trace_exception_closes_span;
    Alcotest.test_case "trace: reset drops buffered events" `Quick
      test_trace_reset_drops_events;
    Alcotest.test_case "trace: chrome export shape" `Quick
      test_chrome_export_shape;
    Alcotest.test_case "trace: disabled overhead smoke" `Slow
      test_trace_disabled_overhead;
    ring_decimation;
    Alcotest.test_case "timeseries: solver feeds the sampler" `Quick
      test_timeseries_solver_sampling;
    Alcotest.test_case "timeseries: disabled records nothing" `Quick
      test_timeseries_disabled_records_nothing;
    Alcotest.test_case "flight: dump roundtrip" `Quick
      test_flight_dump_roundtrip;
    Alcotest.test_case "flight: disabled dump is None" `Quick
      test_flight_disabled_dump_is_none;
    Alcotest.test_case "metrics: interpolated quantiles" `Quick
      test_metrics_quantile;
    Alcotest.test_case "solver: progress cadence" `Quick
      test_solver_progress_cadence;
    minimize_trajectory;
    Alcotest.test_case "mapper: report carries observability fields" `Quick
      test_mapper_report_observability;
  ]
