(* qxm_prof — read a trace or bench artifact and report on it.

   One input file: a Chrome trace or NDJSON event stream (qxmap
   --trace/--events), or a flight-recorder dump (qxmapd/qxmap/bench
   --flight-record).  Prints wall-time attribution (phase, portfolio
   stage, candidate, rung), top-k hot spans with interpolated
   p50/p90/p99, and the objective-bound trajectory.  With --check it
   validates the trace instead (exit 1 on any violation).

   Two input files: BASE.json and NEW.json bench records
   (bench/main.ml --json); the regression gate prints one verdict line
   per baseline row and exits 1 on a regression.  See
   doc/OBSERVABILITY.md. *)

open Cmdliner
module Profile = Qxm_profile.Profile

let files_arg =
  Arg.(
    non_empty
    & pos_all file []
    & info [] ~docv:"FILE"
        ~doc:
          "Input artifact(s).  One file: trace / events / flight dump \
           to analyze or check.  Two files: BASE.json and NEW.json \
           bench records to gate.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit the one-file report as one machine-readable JSON object \
           instead of text.")

let top_arg =
  Arg.(
    value
    & opt int 10
    & info [ "top" ] ~docv:"N"
        ~doc:"How many hot spans to show (by total recorded time).")

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Check the trace instead of analyzing it: per worker, every E \
           closes the innermost open B of its name, timestamps never go \
           backwards and no span is left open; every event carries \
           name, ph, ts and tid.  Exit 1 on any violation.")

let min_workers_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "min-workers" ] ~docv:"N"
        ~doc:"With --check: require at least $(docv) distinct worker tids.")

let require_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "require" ] ~docv:"PREFIX"
        ~doc:
          "With --check: require an event whose name starts with \
           $(docv) (repeatable).")

let samples_arg =
  Arg.(
    value & flag
    & info [ "samples" ]
        ~doc:
          "With --check: require solver.sample counter events, each \
           with a conflicts arg.")

let request_ids_arg =
  Arg.(
    value & flag
    & info [ "request-ids" ]
        ~doc:
          "With --check: every svc.solve span carries a request arg, and \
           every request reference resolves to the id of an svc.request \
           span.  Needs a complete trace, not a flight dump.")

let fail msg =
  Printf.eprintf "qxm_prof: %s\n" msg;
  exit 2

let load f =
  match Profile.parse_file f with
  | Error e -> fail (f ^ ": " ^ e)
  | Ok input -> input

let check file ~min_workers ~require ~samples ~request_ids =
  let c =
    match Profile.parse_file file with
    | Error e -> { Profile.c_events = 0; c_workers = 0; c_errors = [ e ] }
    | Ok input ->
        Profile.check ?min_workers ~require ~samples ~request_ids input
  in
  if c.c_errors <> [] then begin
    List.iter (Printf.eprintf "qxm_prof: %s: %s\n" file) c.c_errors;
    exit 1
  end;
  Printf.printf "qxm_prof: OK — %d events, %d worker(s)\n" c.c_events
    c.c_workers

let run files json top check_mode min_workers require samples request_ids =
  if
    (not check_mode)
    && (min_workers <> None || require <> [] || samples || request_ids)
  then
    fail "--min-workers, --require, --samples and --request-ids need --check";
  match files with
  | [ file ] when check_mode ->
      check file ~min_workers ~require ~samples ~request_ids
  | [ file ] -> (
      match load file with
      | Profile.Bench_rows _ ->
          fail
            (file
           ^ ": bench JSON input — the gate needs two files (BASE NEW)")
      | input ->
          let report = Profile.analyze input in
          print_string
            (if json then Profile.render_json ~top report ^ "\n"
             else Profile.render_text ~top report))
  | [ base; fresh ] when not check_mode -> (
      match Profile.gate (load base) (load fresh) with
      | Error e -> fail e
      | Ok g ->
          List.iter print_endline g.g_lines;
          if g.g_regressions > 0 then begin
            Printf.printf "qxm_prof: %d regression(s) against %s\n"
              g.g_regressions base;
            exit 1
          end;
          print_endline "qxm_prof: no regressions")
  | _ -> fail "expected one artifact, or two bench JSON files to gate"

let () =
  let info =
    Cmd.info "qxm_prof" ~version:"1.0.0"
      ~doc:
        "Offline reports for qxmap/qxmapd observability artifacts: \
         wall-time attribution (phase, stage, rung), hot spans with \
         p50/p90/p99 and the objective trajectory; trace checks; and \
         the bench regression gate.  See doc/OBSERVABILITY.md."
  in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            const run $ files_arg $ json_arg $ top_arg $ check_arg
            $ min_workers_arg $ require_arg $ samples_arg $ request_ids_arg)))
