(* Tests for the observability layer: the metrics registry (snapshot /
   diff / merge algebra, and its agreement with [Solver.add_stats]-style
   aggregation), the span tracer (per-worker well-nested events, Chrome
   export shape, disabled-mode cost), and the stream as the only
   progress channel (the solver's 64-conflict telemetry cadence, the
   minimizer's incumbent instants, and the run summary folded from a
   traced mapping). *)

open Test_util
module Trace = Qxm_obs.Trace
module Metrics = Qxm_obs.Metrics
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
module Profile = Qxm_profile.Profile

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
   [solver.*] registry delta of the whole call.  On alu-v1_28 every
   conflict-limited rung exhausts its budget.  Seeded by the DP, the
   portfolio runs only the ladder's last rung, which lands on the seed.
   Without the seed both rungs run, each a fresh solve bounded by the
   incumbent's objective value, so F never rises from one to the next. *)
let test_portfolio_stats_match_registry () =
  let e = Option.get (Suite.by_name "alu-v1_28") in
  let run ~warm_start =
    let options =
      {
        Portfolio.default with
        exact =
          {
            Mapper.default with
            strategy = Strategy.Minimal;
            jobs = 1;
            warm_start;
          };
        ladder = [ 500; 2000 ];
        jobs = 1;
      }
    in
    let before = Metrics.snapshot () in
    match Portfolio.run ~options ~arch:Devices.qx4 e.circuit with
    | Error err -> Alcotest.failf "%a" Portfolio.pp_failure err
    | Ok r ->
        let window = Metrics.diff (Metrics.snapshot ()) before in
        List.iter
          (fun (name, v) ->
            Alcotest.(check int) (name ^ " = registry delta")
              (Metrics.count window ("solver." ^ name))
              v)
          (Solver.stats_counters r.sat_stats);
        ( r,
          List.filter
            (fun (s : Portfolio.stage) ->
              String.starts_with ~prefix:"exact:" s.stage)
            r.stages )
  in
  let r, exact = run ~warm_start:true in
  Alcotest.(check (list (pair string string)))
    "the seeded run is the last rung, on the incumbent"
    [ ("exact:2000", Printf.sprintf "incumbent F=%d" r.f_cost) ]
    (List.map (fun (s : Portfolio.stage) -> (s.stage, s.outcome)) exact);
  let _, exact = run ~warm_start:false in
  Alcotest.(check (list string)) "the unseeded run climbs both rungs"
    [ "exact:500"; "exact:2000" ]
    (List.map (fun (s : Portfolio.stage) -> s.stage) exact);
  let fs =
    List.map
      (fun (s : Portfolio.stage) ->
        Scanf.sscanf s.outcome "incumbent F=%d" Fun.id)
      exact
  in
  Alcotest.(check bool) "F never rises from rung to rung" true
    (List.sort (Fun.flip compare) fs = fs)

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
      "mapper.candidates_pruned"; "par.incumbent_updates";
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
   sample per 64-conflict tick) stay out of the benchmarks.  The
   wrapped closure mirrors the solver's actual hot path: span
   entry/exit, a counter sample gated on [Trace.recording] (so argument
   evaluation is skipped), and the flight recorder's gate.  Generous
   allowances keep this a smoke test, not a microbenchmark. *)
let test_trace_disabled_overhead () =
  Trace.disable ();
  Trace.reset ();
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
        if Trace.recording () then
          Trace.counter "solver.sample" ~args:[ ("conflicts", Trace.Int 0) ];
        ignore (Sys.opaque_identity (Flight.enabled ()));
        work ())
  in
  Alcotest.(check bool)
    (Printf.sprintf
       "disabled span+sample+flight within 10%% + noise (bare %.3fs, \
        wrapped %.3fs)"
       bare wrapped)
    true
    (wrapped <= (bare *. 1.10) +. 0.25)

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

(* A sink alone (the flight recorder's and the progress line's shape,
   buffers off) must see each solve's span: the solver gates its span on
   any recorder, not on the buffers only. *)
let test_sink_sees_solver_spans () =
  Trace.disable ();
  Trace.reset ();
  let seen = ref [] in
  Trace.set_sink
    (Some
       (fun (e : Trace.event) ->
         if e.name = "solver.solve" then seen := e.ph :: !seen));
  Fun.protect
    ~finally:(fun () -> Trace.set_sink None)
    (fun () ->
      match Solver.solve (php 3) with
      | Solver.Unsat -> ()
      | _ -> Alcotest.fail "pigeonhole must be unsatisfiable");
  Alcotest.(check bool) "sink saw solver.solve B then E" true
    (List.rev !seen = [ `B; `E ]);
  Alcotest.(check int) "buffers stayed empty" 0
    (List.length (Trace.events ()))

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

(* -- the event stream as the only progress channel ------------------------- *)

(* [f ()] with the tracer recording from a clean buffer: its result, the
   trace clock at its start, and the events it recorded. *)
let traced f =
  Trace.reset ();
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
    (fun () ->
      let t0_us = Trace.now_us () in
      let r = f () in
      (r, t0_us, Trace.events ()))

let solve_php5 () =
  let s = php 5 in
  (match Solver.solve s with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "pigeonhole must be unsatisfiable");
  Solver.stats s

let solver_samples events =
  List.filter
    (fun (e : Trace.event) -> e.ph = `C && e.name = "solver.sample")
    events

let sample_arg k (e : Trace.event) =
  match List.assoc_opt k e.args with
  | Some (Trace.Int i) -> i
  | _ -> Alcotest.failf "solver.sample without an int %s arg" k

(* The solver's time series is the run of [solver.sample] counter events
   in the trace.  End to end: a conflict-heavy solve inside a labelled
   span records several samples, each on the span's domain and within
   its window (so the span's label and bound are the sample's context),
   with monotone timestamps, rising conflict counts and plausible
   search-state fields. *)
let test_timeseries_solver_sampling () =
  let (), _, events =
    traced (fun () ->
        Trace.with_span ~name:"stage=test"
          ~args:[ ("bound", Trace.Int 7) ]
          (fun () -> ignore (solve_php5 ())))
  in
  let span ph =
    match
      List.find_opt
        (fun (e : Trace.event) -> e.ph = ph && e.name = "stage=test")
        events
    with
    | Some e -> e
    | None -> Alcotest.fail "labelled span not recorded"
  in
  let opened = span `B and closed = span `E in
  Alcotest.(check bool) "span carries the bound" true
    (List.assoc_opt "bound" opened.args = Some (Trace.Int 7));
  let samples = solver_samples events in
  Alcotest.(check bool) "several samples recorded" true
    (List.length samples >= 2);
  ignore
    (List.fold_left
       (fun (prev_ts, prev_c) (e : Trace.event) ->
         Alcotest.(check bool) "timestamps monotone" true (e.ts_us >= prev_ts);
         Alcotest.(check bool) "conflicts rising" true
           (sample_arg "conflicts" e > prev_c);
         Alcotest.(check int) "sampled on the span's domain" opened.tid e.tid;
         Alcotest.(check bool) "sample inside the labelled span" true
           (e.ts_us >= opened.ts_us && e.ts_us <= closed.ts_us);
         Alcotest.(check bool) "search-state fields plausible" true
           (sample_arg "decisions" e >= 0
           && sample_arg "propagations" e >= 0
           && sample_arg "restarts" e >= 0
           && sample_arg "trail" e >= 0
           && sample_arg "arena_words" e >= 0
           && sample_arg "learnt_core" e <= sample_arg "learnts" e
           &&
           match List.assoc_opt "mean_lbd" e.args with
           | Some (Trace.Float l) -> l >= 0.0
           | _ -> false);
         (e.ts_us, sample_arg "conflicts" e))
       (neg_infinity, -1) samples)

(* With no recorder (tracer off, no sink) neither a direct counter nor a
   conflict-heavy solve records anything. *)
let test_timeseries_disabled_records_nothing () =
  Trace.disable ();
  Trace.reset ();
  Trace.counter "solver.sample" ~args:[ ("conflicts", Trace.Int 1) ];
  ignore (solve_php5 ());
  Alcotest.(check int) "no events recorded" 0 (List.length (Trace.events ()))

(* PHP(5) solved once with the tracer off and once recording: recording
   must not perturb the search, each sample is at least 64 conflicts
   past the previous one, and none overshoots the final stats. *)
let test_solver_samples_in_trace () =
  Trace.disable ();
  Trace.reset ();
  let plain = solve_php5 () in
  let recorded, _, events = traced solve_php5 in
  let search (st : Solver.stats) =
    [ st.conflicts; st.decisions; st.propagations; st.restarts ]
  in
  Alcotest.(check (list int))
    "conflicts, decisions, propagations, restarts unchanged" (search plain)
    (search recorded);
  let samples = solver_samples events in
  Alcotest.(check bool) "several samples recorded" true
    (List.length samples >= 2);
  let last =
    List.fold_left
      (fun prev e ->
        let c = sample_arg "conflicts" e in
        Alcotest.(check bool) "cadence of at least 64 conflicts" true
          (prev < 0 || c - prev >= 64);
        c)
      (-1) samples
  in
  Alcotest.(check bool) "samples never overshoot the final stats" true
    (last <= recorded.conflicts)

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
      let outcome, _, events =
        traced (fun () -> Minimize.minimize ~cnf ~objective ())
      in
      let fired =
        List.filter_map
          (fun (e : Trace.event) ->
            match (e.ph, e.name, e.args) with
            | `I, "minimize.incumbent", [ ("cost", Trace.Int c) ] -> Some c
            | _ -> None)
          events
      in
      let rec strictly_decreasing = function
        | a :: (b :: _ as tl) -> a > b && strictly_decreasing tl
        | _ -> true
      in
      (* the stream is empty iff there is no model, else ends at [cost] *)
      strictly_decreasing fired
      &&
      match (outcome.model, outcome.cost, List.rev fired) with
      | Some _, Some c, last :: _ -> last = c
      | None, _, [] -> true
      | _ -> false)

(* -- mapper reports ------------------------------------------------------- *)

(* The per-run fields of [qxmap map --json], folded from a traced run. *)
let test_mapper_report_observability () =
  match traced (fun () -> Mapper.run ~arch:Devices.qx4 Examples.fig1a) with
  | Error e, _, _ -> Alcotest.failf "mapper failed: %a" Mapper.pp_failure e
  | Ok r, t0_us, events ->
      Alcotest.(check bool) "strategy name recorded" true
        (String.length r.strategy_name > 0);
      let u = Profile.fold_run ~t0_us events in
      Alcotest.(check (list string)) "all five phases, in order"
        [ "encode"; "warm_start"; "solve"; "reconstruct"; "verify" ]
        (List.map fst u.u_phases);
      List.iter
        (fun (name, v) ->
          Alcotest.(check bool) (name ^ " time non-negative") true (v >= 0.0))
        u.u_phases;
      Alcotest.(check bool) "encode and solve took time" true
        (List.assoc "encode" u.u_phases > 0.0
        && List.assoc "solve" u.u_phases > 0.0);
      Alcotest.(check bool) "trajectory recorded" true (u.u_trajectory <> []);
      let rec check prev_t prev_c = function
        | [] -> ()
        | (t, c) :: tl ->
            Alcotest.(check bool) "trajectory times non-decreasing" true
              (t >= prev_t);
            Alcotest.(check bool) "trajectory costs strictly decreasing" true
              (c < prev_c);
            check t c tl
      in
      check 0.0 max_int u.u_trajectory;
      let _, last_cost =
        List.nth u.u_trajectory (List.length u.u_trajectory - 1)
      in
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
    Alcotest.test_case "flight: dump roundtrip" `Quick
      test_flight_dump_roundtrip;
    Alcotest.test_case "flight: disabled dump is None" `Quick
      test_flight_disabled_dump_is_none;
    Alcotest.test_case "trace: sink-only recorder sees solver spans" `Quick
      test_sink_sees_solver_spans;
    Alcotest.test_case "metrics: interpolated quantiles" `Quick
      test_metrics_quantile;
    Alcotest.test_case "solver: progress cadence" `Quick
      test_solver_samples_in_trace;
    Alcotest.test_case "timeseries: solver feeds the sampler" `Quick
      test_timeseries_solver_sampling;
    Alcotest.test_case "timeseries: disabled records nothing" `Quick
      test_timeseries_disabled_records_nothing;
    minimize_trajectory;
    Alcotest.test_case "mapper: report carries observability fields" `Quick
      test_mapper_report_observability;
  ]
