(* Tests for the offline profiler behind qxm_prof: input auto-detection
   (Chrome trace / NDJSON events / flight dump, and the rejection of
   anything else), span and sample-gap attribution, trajectory
   extraction, and the trace check. *)

open Test_util
module Profile = Qxm_profile.Profile

(* -- synthetic inputs ----------------------------------------------------- *)

let ev ?(args = "") name ph ts tid =
  Printf.sprintf
    "{\"name\": \"%s\", \"ph\": \"%s\", \"ts\": %.1f, \"pid\": 0, \"tid\": \
     %d, \"args\": {%s}}"
    name ph ts tid args

let sample ts tid conflicts =
  ev "solver.sample" "C" ts tid
    ~args:(Printf.sprintf "\"conflicts\": %d" conflicts)

let step ph ts ?bound n =
  ev "minimize.step" ph ts 1
    ~args:
      (match bound with
      | Some b -> Printf.sprintf "\"step\": %d, \"bound\": %d" n b
      | None -> "")

(* One worker inside one ladder stage and candidate: 100us of encode,
   then a 1000us solve whose interior is covered by three samples — the
   first gap inside the rung-5 step, the second inside the rung-4 step.
   A last rung-3 step ends before any sample is taken.  Every
   microsecond of the window is attributable. *)
let trace_lines =
  [
    ev "portfolio.stage" "B" 0.0 1 ~args:"\"stage\": \"ladder\"";
    ev "mapper.candidate" "B" 0.0 1 ~args:"\"index\": 0, \"qubits\": 5";
    ev "mapper.encode" "B" 0.0 1;
    ev "mapper.encode" "E" 100.0 1;
    ev "mapper.solve" "B" 100.0 1;
    step "B" 100.0 1 ~bound:5;
    sample 100.0 1 0;
    sample 600.0 1 64;
    step "E" 600.0 1;
    step "B" 600.0 2 ~bound:4;
    sample 1100.0 1 128;
    step "E" 1100.0 2;
    step "B" 1100.0 3 ~bound:3;
    step "E" 1100.0 3;
    ev "mapper.solve" "E" 1100.0 1;
    ev "mapper.candidate" "E" 1100.0 1;
    ev "portfolio.stage" "E" 1100.0 1;
  ]

let nevents = List.length trace_lines

let ndjson = String.concat "\n" trace_lines ^ "\n"

let chrome =
  "{\"traceEvents\": [\n" ^ String.concat ",\n" trace_lines ^ "\n]}\n"

let flight =
  "{\"flight\": 1, \"reason\": \"unit timeout\", \"dumped_ts_us\": 2000.0, \
   \"dropped\": 3, \"events\": 17}\n" ^ ndjson

(* -- parsing -------------------------------------------------------------- *)

let parse s =
  match Profile.parse_string s with
  | Ok input -> input
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_autodetect () =
  (match parse ndjson with
  | Profile.Trace_events events ->
      Alcotest.(check int) "ndjson events" nevents (List.length events)
  | _ -> Alcotest.fail "ndjson not detected as events");
  (match parse chrome with
  | Profile.Trace_events events ->
      Alcotest.(check int) "chrome events" nevents (List.length events)
  | _ -> Alcotest.fail "chrome doc not detected as events");
  (match parse flight with
  | Profile.Flight { f_reason; f_dropped; f_events } ->
      Alcotest.(check string) "flight reason" "unit timeout" f_reason;
      Alcotest.(check int) "flight dropped" 3 f_dropped;
      Alcotest.(check int) "flight events" nevents (List.length f_events)
  | _ -> Alcotest.fail "flight dump not detected");
  (* neither a top-level array nor a line stream of other records is
     a trace *)
  let record = "{\"benchmark\": \"a\", \"wall_s\": 1.0}" in
  List.iter
    (fun (label, content) ->
      match Profile.parse_string content with
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "%s rejected as unrecognised (got %S)" label e)
            true
            (contains_substring e "unrecognised input")
      | Ok _ -> Alcotest.failf "%s must be rejected" label)
    [
      ("a top-level array", "[\n  " ^ record ^ "\n]\n");
      ("a benchmark NDJSON line", record ^ "\n");
    ]

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
  (* sample-gap attribution: the two 500us gaps land on the rungs of
     their minimize.step spans and on the stage and candidate around
     them; the phase dimension merges samples and spans without double
     counting *)
  Alcotest.(check (float 1e-6)) "rung 5 charged its gap" 500.0
    (slice r "rung" "5");
  Alcotest.(check (float 1e-6)) "rung 4 charged its gap" 500.0
    (slice r "rung" "4");
  Alcotest.(check (float 1e-6)) "stage ladder charged both gaps" 1000.0
    (slice r "stage" "ladder");
  Alcotest.(check (float 1e-6)) "candidate 0 charged both gaps" 1000.0
    (slice r "cand" "0");
  Alcotest.(check (float 1e-6)) "phase solve not double counted" 1000.0
    (slice r "phase" "solve");
  Alcotest.(check (float 1e-6)) "phase encode from its span" 100.0
    (slice r "phase" "encode");
  Alcotest.(check bool)
    (Printf.sprintf "coverage within [0.95, 1.05] (got %.3f)" r.r_coverage)
    true
    (r.r_coverage >= 0.95 && r.r_coverage <= 1.05);
  (* trajectory from the step spans: first bound 5, improved to 4 and
     then to 3 by a step that ended before any sample *)
  match r.r_trajectory with
  | None -> Alcotest.fail "trajectory missing"
  | Some t ->
      Alcotest.(check int) "first bound" 5 t.t_first_bound;
      Alcotest.(check int) "best bound" 3 t.t_best_bound;
      Alcotest.(check int) "two improvements" 2 t.t_improvements;
      Alcotest.(check int) "tail rung" 3 t.t_tail_rung

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
      Alcotest.(check int) "events counted" nevents c.c_events;
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
  fails "bench input" "unrecognised input"
    (check_errors "{\"benchmark\": \"a\", \"wall_s\": 1.0}\n")

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

let test_span_quantile_clamped () =
  (* one 9 s span: interpolating inside its [2^23, 2^24) us bucket
     would read 12.6 s at p50; every quantile is the one observed
     duration *)
  let r =
    Profile.analyze
      (parse (lines_doc [ ev "s" "B" 0.0 1; ev "s" "E" 9e6 1 ]))
  in
  match r.r_spans with
  | [ s ] ->
      List.iter
        (fun q ->
          Alcotest.(check (option (float 1e-9)))
            (Printf.sprintf "p%g of one 9 s span" (100.0 *. q))
            (Some 9.0) (Profile.span_quantile s q))
        [ 0.5; 0.9; 0.99 ]
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
    Alcotest.test_case "check: clean traces pass" `Quick test_check_clean;
    Alcotest.test_case "check: every defect fails" `Quick test_check_defects;
    Alcotest.test_case "span quantiles in seconds" `Quick test_span_quantile;
    Alcotest.test_case "span quantiles clamped to the observed range" `Quick
      test_span_quantile_clamped;
  ]
