(* Tests for the offline profiler behind qxm_prof: input auto-detection
   (Chrome trace / NDJSON events / flight dump / bench JSON), span and
   sample-gap attribution, trajectory extraction, the trace check, and
   the bench gate's verdicts, including the stage and counter it names
   behind a regression. *)

open Test_util
module Profile = Qxm_profile.Profile

(* -- synthetic inputs ----------------------------------------------------- *)

let ev ?(args = "") name ph ts tid =
  Printf.sprintf
    "{\"name\": \"%s\", \"ph\": \"%s\", \"ts\": %.1f, \"pid\": 0, \"tid\": \
     %d, \"args\": {%s}}"
    name ph ts tid args

let sample ?(extra = "") ts tid conflicts =
  ev "solver.sample" "C" ts tid
    ~args:(Printf.sprintf "\"conflicts\": %d%s" conflicts extra)

(* One worker: 100us of encode, then a 1000us solve whose interior is
   covered by three samples — the first gap under rung 5, the second
   under rung 4.  Every microsecond of the window is attributable. *)
let trace_lines =
  [
    ev "mapper.encode" "B" 0.0 1;
    ev "mapper.encode" "E" 100.0 1;
    ev "mapper.solve" "B" 100.0 1;
    sample 100.0 1 0;
    sample 600.0 1 64
      ~extra:", \"bound\": 5, \"label\": \"stage=ladder rung=5\"";
    sample 1100.0 1 128
      ~extra:", \"bound\": 4, \"label\": \"stage=ladder rung=4\"";
    ev "mapper.solve" "E" 1100.0 1;
  ]

let ndjson = String.concat "\n" trace_lines ^ "\n"

let chrome =
  "{\"traceEvents\": [\n" ^ String.concat ",\n" trace_lines ^ "\n]}\n"

let flight =
  "{\"flight\": 1, \"reason\": \"unit timeout\", \"dumped_ts_us\": 2000.0, \
   \"dropped\": 3, \"events\": 7}\n" ^ ndjson

(* One bench record as bench/main.ml writes it; [timed_out] and
   [suite] are left out when [None], as in records that predate them. *)
let bench_row ?(suite = Some "quick") ?(jobs = 1) ?(wall = 1.2)
    ?(optimal = true) ?(failed = false) ?(timed_out = Some false)
    ?(stage_solve = 1.0) ?(conflicts = 1000) ?propagations
    ?(props_per_sec = 1e6) ?minor_words name =
  let propagations = Option.value ~default:(conflicts * 100) propagations in
  let field k = Option.fold ~none:"" ~some:(Printf.sprintf "\"%s\": %s, " k) in
  Printf.sprintf
    "  {%s\"benchmark\": \"%s\", \"device\": \"qx4\", \"strategy\": \
     \"minimal\", \"jobs\": %d, \"wall_s\": %.3f, %s\"optimal\": %b, \
     %s\"stage_encode_s\": 0.100, \"stage_solve_s\": %.3f, \"conflicts\": \
     %d, \"propagations\": %d, \"props_per_sec\": %.0f%s}"
    (field "suite" (Option.map (Printf.sprintf "%S") suite))
    name jobs wall
    (if failed then "\"failed\": true, " else "")
    optimal
    (field "timed_out" (Option.map string_of_bool timed_out))
    stage_solve conflicts propagations props_per_sec
    (Option.fold ~none:"" ~some:(Printf.sprintf ", \"minor_words\": %d")
       minor_words)

let bench_doc rows = "[\n" ^ String.concat ",\n" rows ^ "\n]\n"

(* -- parsing -------------------------------------------------------------- *)

let parse s =
  match Profile.parse_string s with
  | Ok input -> input
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_autodetect () =
  (match parse ndjson with
  | Profile.Trace_events events ->
      Alcotest.(check int) "ndjson events" 7 (List.length events)
  | _ -> Alcotest.fail "ndjson not detected as events");
  (match parse chrome with
  | Profile.Trace_events events ->
      Alcotest.(check int) "chrome events" 7 (List.length events)
  | _ -> Alcotest.fail "chrome doc not detected as events");
  (match parse flight with
  | Profile.Flight { f_reason; f_dropped; f_events } ->
      Alcotest.(check string) "flight reason" "unit timeout" f_reason;
      Alcotest.(check int) "flight dropped" 3 f_dropped;
      Alcotest.(check int) "flight events" 7 (List.length f_events)
  | _ -> Alcotest.fail "flight dump not detected");
  match parse (bench_doc [ bench_row "a"; bench_row "b" ]) with
  | Profile.Bench_rows rows ->
      Alcotest.(check int) "bench rows" 2 (List.length rows)
  | _ -> Alcotest.fail "bench JSON not detected"

(* -- attribution ---------------------------------------------------------- *)

let slice report dim name =
  match
    List.find_opt (fun (d : Profile.dim) -> d.d_name = dim) report.Profile.r_dims
  with
  | None -> Alcotest.failf "dimension %S missing" dim
  | Some d -> Option.value ~default:0.0 (List.assoc_opt name d.d_slices)

let test_attribution () =
  let r = Profile.analyze (parse flight) in
  Alcotest.(check (option string)) "reason surfaces" (Some "unit timeout")
    r.r_reason;
  Alcotest.(check int) "dropped surfaces" 3 r.r_dropped;
  Alcotest.(check int) "one worker" 1 r.r_tids;
  Alcotest.(check (float 1e-6)) "window is last - first ts" 1100.0 r.r_wall_us;
  (* span replay: totals for the two completed spans *)
  let span name =
    match
      List.find_opt (fun (s : Profile.span_stat) -> s.s_name = name) r.r_spans
    with
    | Some s -> s
    | None -> Alcotest.failf "span %S missing" name
  in
  Alcotest.(check (float 1e-6)) "encode span total" 100.0
    (span "mapper.encode").s_total_us;
  Alcotest.(check (float 1e-6)) "solve span total" 1000.0
    (span "mapper.solve").s_total_us;
  Alcotest.(check int) "solve span completed once" 1
    (span "mapper.solve").s_count;
  (* sample-gap attribution: the two 500us gaps land on their rungs and
     the ladder stage; the phase dimension merges samples and spans
     without double counting *)
  Alcotest.(check (float 1e-6)) "rung 5 charged its gap" 500.0
    (slice r "rung" "5");
  Alcotest.(check (float 1e-6)) "rung 4 charged its gap" 500.0
    (slice r "rung" "4");
  Alcotest.(check (float 1e-6)) "stage ladder charged both gaps" 1000.0
    (slice r "stage" "ladder");
  Alcotest.(check (float 1e-6)) "phase solve not double counted" 1000.0
    (slice r "phase" "solve");
  Alcotest.(check (float 1e-6)) "phase encode from its span" 100.0
    (slice r "phase" "encode");
  Alcotest.(check bool)
    (Printf.sprintf "coverage within [0.95, 1.05] (got %.3f)" r.r_coverage)
    true
    (r.r_coverage >= 0.95 && r.r_coverage <= 1.05);
  (* trajectory: first bound 5, improved once to 4 *)
  match r.r_trajectory with
  | None -> Alcotest.fail "trajectory missing"
  | Some t ->
      Alcotest.(check int) "first bound" 5 t.t_first_bound;
      Alcotest.(check int) "best bound" 4 t.t_best_bound;
      Alcotest.(check bool) "at least one improvement" true
        (t.t_improvements >= 1)

let test_open_span_censored () =
  (* a span that never closes — the normal shape for a timeout — is
     charged up to the end of the window, not dropped *)
  let lines =
    [ ev "mapper.solve" "B" 0.0 1; ev "solver.reduce_db" "I" 800.0 1 ]
  in
  let r =
    Profile.analyze (parse (String.concat "\n" lines ^ "\n"))
  in
  match
    List.find_opt
      (fun (s : Profile.span_stat) -> s.s_name = "mapper.solve")
      r.r_spans
  with
  | None -> Alcotest.fail "open span missing from stats"
  | Some s ->
      Alcotest.(check int) "no completed instance" 0 s.s_count;
      Alcotest.(check int) "one open instance" 1 s.s_open;
      Alcotest.(check (float 1e-6)) "censored at window end" 800.0 s.s_total_us

let test_renderers_run () =
  let r = Profile.analyze (parse flight) in
  let text = Profile.render_text ~top:5 r in
  Alcotest.(check bool) "text names the reason" true
    (contains_substring text "unit timeout");
  Alcotest.(check bool) "text has the rung dimension" true
    (contains_substring text "by rung");
  let json = Profile.render_json r in
  match Qxm_json.Sjson.parse json with
  | Error e -> Alcotest.failf "render_json is not JSON: %s" e
  | Ok doc ->
      Alcotest.(check (option string)) "json carries the source"
        (Some "flight dump")
        Qxm_json.Sjson.(Option.bind (member "source" doc) to_string_opt)

let test_analyze_rejects_bench () =
  match Profile.analyze (parse (bench_doc [ bench_row "a" ])) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "analyze must reject bench rows"

(* -- trace check ----------------------------------------------------------- *)

(* The errors the CLI reports for [content]: a parse failure or the
   check's own findings. *)
let check_errors ?min_workers ?require ?samples ?request_ids content =
  match Profile.parse_string content with
  | Error e -> [ e ]
  | Ok input ->
      (Profile.check ?min_workers ?require ?samples ?request_ids input)
        .c_errors

let lines_doc ls = String.concat "\n" ls ^ "\n"

(* A daemon-shaped trace on two workers: a registered request whose
   solve span references it. *)
let svc_lines =
  [
    ev "svc.request" "B" 0.0 1 ~args:"\"id\": \"r1\"";
    ev "svc.solve" "B" 10.0 2 ~args:"\"request\": \"r1\"";
    sample 20.0 2 64;
    ev "svc.solve" "E" 30.0 2;
    ev "svc.request" "E" 40.0 1;
  ]

let test_check_clean () =
  let all = Some [ "mapper."; "solver." ] in
  (match Profile.parse_string chrome with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok input ->
      let c = Profile.check ?require:all ~samples:true input in
      Alcotest.(check (list string)) "chrome trace passes" [] c.c_errors;
      Alcotest.(check int) "events counted" 7 c.c_events;
      Alcotest.(check int) "workers counted" 1 c.c_workers);
  Alcotest.(check (list string)) "ndjson passes" []
    (check_errors ?require:all ~samples:true ndjson);
  Alcotest.(check (list string)) "flight dump passes (header skipped)" []
    (check_errors ~samples:true flight);
  Alcotest.(check (list string)) "request ids resolve" []
    (check_errors ~min_workers:2 ~samples:true ~request_ids:true
       (lines_doc svc_lines))

let test_check_defects () =
  (* each defect must fail with its own finding, named by [fragment] *)
  let fails label fragment errors =
    Alcotest.(check bool)
      (Printf.sprintf "%s fails with %S (got [%s])" label fragment
         (String.concat "; " errors))
      true
      (List.exists (fun e -> contains_substring e fragment) errors)
  in
  let replace_nth n l ls = List.mapi (fun i x -> if i = n then l else x) ls in
  (* the second "a" E closes the outer span, so only the crossed E is
     wrong *)
  fails "crossed E" "closes span \"a\" but \"b\" is innermost"
    (check_errors
       (lines_doc
          [
            ev "a" "B" 0.0 1; ev "b" "B" 1.0 1; ev "a" "E" 2.0 1;
            ev "b" "E" 3.0 1; ev "a" "E" 4.0 1;
          ]));
  fails "E with nothing open" "with none open"
    (check_errors (lines_doc [ ev "a" "E" 0.0 1 ]));
  fails "unclosed B" "span \"a\" never closed"
    (check_errors
       (lines_doc [ ev "a" "B" 0.0 1; ev "b" "B" 1.0 1; ev "b" "E" 2.0 1 ]));
  fails "backwards ts" "timestamp goes backwards"
    (check_errors (lines_doc [ ev "a" "i" 5.0 1; ev "b" "i" 4.0 1 ]));
  fails "backwards ts on a C event" "timestamp goes backwards"
    (check_errors (lines_doc [ ev "a" "i" 5.0 1; sample 4.0 1 64 ]));
  Alcotest.(check (list string)) "other tids keep their own clock" []
    (check_errors (lines_doc [ ev "a" "i" 5.0 1; ev "b" "i" 4.0 2 ]));
  fails "missing tid" "line 2: event object missing name/ph/ts/tid"
    (check_errors
       (lines_doc
          [
            ev "a" "B" 0.0 1;
            "{\"name\": \"a\", \"ph\": \"E\", \"ts\": 1.0, \"args\": {}}";
          ]));
  fails "missing tid in a Chrome trace" "event 1: event object missing"
    (check_errors
       ("{\"traceEvents\": [\n"
       ^ "{\"name\": \"a\", \"ph\": \"i\", \"ts\": 1.0}\n]}\n"));
  fails "missing ts" "event object missing"
    (check_errors
       (lines_doc [ "{\"name\": \"a\", \"ph\": \"i\", \"tid\": 1}" ]));
  fails "unknown ph" "unknown phase \"X\""
    (check_errors (lines_doc [ ev "a" "X" 0.0 1 ]));
  fails "svc.solve without request" "svc.solve span without a request arg"
    (check_errors ~request_ids:true
       (lines_doc (replace_nth 1 (ev "svc.solve" "B" 10.0 2) svc_lines)));
  fails "dangling request id" "references request id \"r9\""
    (check_errors ~request_ids:true
       (lines_doc
          (replace_nth 1
             (ev "svc.solve" "B" 10.0 2 ~args:"\"request\": \"r9\"")
             svc_lines)));
  fails "--samples without samples" "no solver.sample counter events"
    (check_errors ~samples:true (lines_doc [ ev "a" "i" 0.0 1 ]));
  fails "sample without conflicts" "without a conflicts arg"
    (check_errors ~samples:true
       (lines_doc [ ev "solver.sample" "C" 0.0 1 ~args:"\"bound\": 3" ]));
  fails "too few workers" "only 1 distinct worker tid(s), need at least 2"
    (check_errors ~min_workers:2 ndjson);
  fails "required prefix absent" "no event with name prefix \"svc.\""
    (check_errors ~require:[ "svc." ] ndjson);
  fails "empty trace" "no trace events found"
    (check_errors "{\"traceEvents\": []}\n");
  fails "bench input" "bench JSON holds no trace events"
    (check_errors (bench_doc [ bench_row "a" ]))

(* -- bench gate ------------------------------------------------------------ *)

let gate_lines base fresh =
  match Profile.gate (parse (bench_doc base)) (parse (bench_doc fresh)) with
  | Error e -> Alcotest.failf "gate failed: %s" e
  | Ok g -> g

(* The verdict line for [tag]: the first line that names it. *)
let verdict (g : Profile.gate) tag =
  match
    List.find_opt (fun l -> contains_substring l (" " ^ tag ^ " ")) g.g_lines
  with
  | Some l -> l
  | None -> Alcotest.failf "no line for %s" tag

let test_diff_names_the_stage () =
  (* "slow" triples its solve stage and grows its conflicts 9x; "steady"
     is unchanged; "gone" exists only in the base run *)
  let g =
    gate_lines
      [ bench_row "slow" ~stage_solve:1.0 ~conflicts:1000 ~wall:1.2;
        bench_row "steady"; bench_row "gone" ]
      [ bench_row "slow" ~stage_solve:3.0 ~conflicts:9000 ~wall:3.2;
        bench_row "steady" ]
  in
  Alcotest.(check int) "two regressions" 2 g.g_regressions;
  Alcotest.(check string) "wall regression line"
    "REGRESSED  slow -j1                 wall 3.200s > allowed 1.750s \
     (baseline 1.200s)"
    (verdict g "slow -j1");
  Alcotest.(check bool) "stage that grew is named" true
    (List.mem
       "           slow -j1                 biggest stage growth: solve \
        (+2.000s)"
       g.g_lines);
  Alcotest.(check bool) "counter that grew is named" true
    (List.exists
       (fun l ->
         contains_substring l "biggest counter growth: conflicts x9.00")
       g.g_lines);
  Alcotest.(check bool) "missing row named" true
    (contains_substring (verdict g "gone -j1") "missing from fresh run");
  Alcotest.(check bool) "steady row ok" true
    (contains_substring (verdict g "steady -j1") "ok ")

let test_gate_verdicts () =
  let starts prefix l =
    String.length l >= String.length prefix
    && String.sub l 0 (String.length prefix) = prefix
  in
  (* each case: a one-row baseline and fresh run, the expected verdict
     prefix and a fragment of the line *)
  let big = 200_000 in
  let cases =
    [
      ("ok", bench_row "r", bench_row "r" ~wall:1.7, "ok         ", "1.700s");
      ("missing", bench_row "r", bench_row "other", "REGRESSED  ",
       "missing from fresh run");
      ("failed", bench_row "r", bench_row "r" ~optimal:false ~failed:true,
       "REGRESSED  ", "was optimal, now failed");
      ("newly times out", bench_row "r",
       bench_row "r" ~timed_out:(Some true), "REGRESSED  ",
       "newly times out (was 1.200s)");
      ("optimal flipped", bench_row "r", bench_row "r" ~optimal:false,
       "REGRESSED  ", "optimal flipped true -> false");
      ("wall", bench_row "r", bench_row "r" ~wall:1.76, "REGRESSED  ",
       "wall 1.760s > allowed 1.750s");
      ("props/sec", bench_row "r" ~propagations:big,
       bench_row "r" ~propagations:big ~props_per_sec:6.6e5, "REGRESSED  ",
       "props/sec 0.66M < 0.67M");
      ("minor words vs baseline",
       bench_row "r" ~propagations:big ~minor_words:big,
       bench_row "r" ~propagations:big ~minor_words:(2 * big + 1),
       "REGRESSED  ", "minor words/prop 2.00 > 2.00 (baseline * 1.5 + 0.5)");
      ("minor words, absolute ceiling", bench_row "r" ~propagations:big,
       bench_row "r" ~propagations:big ~minor_words:(9 * big), "REGRESSED  ",
       "minor words/prop 9.00 > 8.00 (absolute ceiling)");
      ("unstable", bench_row "r" ~optimal:false ~timed_out:(Some true),
       bench_row "r" ~optimal:false ~timed_out:(Some true), "unstable   ",
       "baseline not optimal, not gated");
      ("optimal but timed out is not gated",
       bench_row "r" ~timed_out:(Some true), bench_row "other",
       "unstable   ", "not gated");
      ("improved", bench_row "r" ~optimal:false ~timed_out:(Some true),
       bench_row "r" ~wall:0.5, "improved   ",
       "newly finishes within budget (0.500s, was timing out)");
      ("suite is part of the key", bench_row "r",
       bench_row "r" ~suite:(Some "hard"), "REGRESSED  ",
       "missing from fresh run");
      ("jobs is part of the key", bench_row "r", bench_row "r" ~jobs:2,
       "REGRESSED  ", "missing from fresh run");
      ("missing suite reads as quick", bench_row "r" ~suite:None,
       bench_row "r", "ok         ", "r -j1");
      ("missing timed_out is unknown", bench_row "r" ~timed_out:None,
       bench_row "r" ~timed_out:None, "ok         ", "r -j1");
    ]
  in
  List.iter
    (fun (label, base, fresh, prefix, fragment) ->
      let g = gate_lines [ base ] [ fresh ] in
      Alcotest.(check bool)
        (Printf.sprintf "%s: a line starts %S and has %S" label prefix
           fragment)
        true
        (List.exists
           (fun l -> starts prefix l && contains_substring l fragment)
           g.g_lines);
      Alcotest.(check int) (label ^ ": regression count")
        (if prefix = "REGRESSED  " then 1 else 0)
        g.g_regressions)
    cases;
  (* throughput within bounds prints its ratio, and small rows skip the
     solver gates altogether *)
  let g =
    gate_lines [ bench_row "r" ~propagations:big ]
      [ bench_row "r" ~propagations:big ~props_per_sec:2e6 ]
  in
  Alcotest.(check bool) "ratio line" true
    (List.exists (fun l -> contains_substring l "props/sec 2.00x baseline")
       g.g_lines);
  let g =
    gate_lines [ bench_row "r" ~propagations:99_999 ]
      [ bench_row "r" ~propagations:99_999 ~props_per_sec:1.0
          ~minor_words:max_int ]
  in
  Alcotest.(check int) "under 100k propagations not gated" 0 g.g_regressions;
  (match
     Profile.gate (parse (bench_doc [])) (parse (bench_doc [ bench_row "r" ]))
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "an empty baseline must be rejected");
  match Profile.gate (parse ndjson) (parse (bench_doc [ bench_row "r" ])) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a trace is not a baseline"

let test_span_quantile () =
  (* ten completed 100us spans: every quantile interpolates inside the
     64..128us bucket, reported in seconds *)
  let lines =
    List.concat_map
      (fun i ->
        let t0 = float_of_int (i * 1000) in
        [ ev "s" "B" t0 1; ev "s" "E" (t0 +. 100.0) 1 ])
      (List.init 10 Fun.id)
  in
  let r = Profile.analyze (parse (String.concat "\n" lines ^ "\n")) in
  match r.r_spans with
  | [ s ] -> (
      match Profile.span_quantile s 0.5 with
      | Some q ->
          Alcotest.(check bool)
            (Printf.sprintf "p50 inside the 100us bucket (got %gs)" q)
            true
            (q >= 64e-6 && q <= 128e-6)
      | None -> Alcotest.fail "no quantile from a populated histogram")
  | spans -> Alcotest.failf "expected one span, got %d" (List.length spans)

let suite =
  [
    Alcotest.test_case "inputs auto-detected" `Quick test_autodetect;
    Alcotest.test_case "attribution: spans + sample gaps" `Quick
      test_attribution;
    Alcotest.test_case "open spans censored at window end" `Quick
      test_open_span_censored;
    Alcotest.test_case "renderers produce text and JSON" `Quick
      test_renderers_run;
    Alcotest.test_case "analyze rejects bench rows" `Quick
      test_analyze_rejects_bench;
    Alcotest.test_case "diff names stage and counter" `Quick
      test_diff_names_the_stage;
    Alcotest.test_case "check: clean traces pass" `Quick test_check_clean;
    Alcotest.test_case "check: every defect fails" `Quick test_check_defects;
    Alcotest.test_case "gate: one input per verdict" `Quick
      test_gate_verdicts;
    Alcotest.test_case "span quantiles in seconds" `Quick test_span_quantile;
  ]
