(* qxm_prof — explain where the time went.

   One input file: a Chrome trace or NDJSON event stream (qxmap
   --trace/--events), or a flight-recorder dump (qxmapd/qxmap/bench
   --flight-record).  Prints wall-time attribution (phase, portfolio
   stage, candidate, rung), top-k hot spans with interpolated
   p50/p90/p99, and the objective-bound trajectory.

   Two input files: both must be bench JSON (bench/main.ml --json);
   each wall-time regression is attributed to the stage and solver
   counter that grew.  See doc/OBSERVABILITY.md. *)

open Cmdliner
module Profile = Qxm_profile.Profile

let files_arg =
  Arg.(
    non_empty
    & pos_all file []
    & info [] ~docv:"FILE"
        ~doc:
          "Input artifact(s).  One file: trace / events / flight dump \
           to analyze.  Two files: BASE.json and NEW.json bench \
           records to diff.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit one machine-readable JSON object instead of text.")

let top_arg =
  Arg.(
    value
    & opt int 10
    & info [ "top" ] ~docv:"N"
        ~doc:"How many hot spans to show (by total recorded time).")

let diff_arg =
  Arg.(
    value & flag
    & info [ "diff" ]
        ~doc:
          "Force diff mode (implied when two files are given; rejects \
           anything but two bench JSON inputs).")

let fail msg =
  Printf.eprintf "qxm_prof: %s\n" msg;
  exit 2

let run files json top diff =
  match files with
  | [ file ] when not diff -> (
      match Profile.parse_file file with
      | Error e -> fail (file ^ ": " ^ e)
      | Ok (Profile.Bench_rows _) ->
          fail
            (file
           ^ ": bench JSON input — diff mode needs two files (BASE NEW)")
      | Ok input ->
          let report = Profile.analyze input in
          print_string
            (if json then Profile.render_json ~top report ^ "\n"
             else Profile.render_text ~top report))
  | [ base; fresh ] -> (
      let load f =
        match Profile.parse_file f with
        | Error e -> fail (f ^ ": " ^ e)
        | Ok input -> input
      in
      match Profile.diff (load base) (load fresh) with
      | Error e -> fail e
      | Ok d ->
          print_string
            (if json then Profile.render_diff_json d ^ "\n"
             else Profile.render_diff_text d))
  | [ _ ] -> fail "--diff needs two bench JSON files (BASE NEW)"
  | _ -> fail "expected one artifact, or two bench JSON files to diff"

let () =
  let info =
    Cmd.info "qxm_prof" ~version:"1.0.0"
      ~doc:
        "Offline profile reports for qxmap/qxmapd observability \
         artifacts: wall-time attribution (phase, stage, rung), \
         hot spans with p50/p90/p99, objective trajectory, and bench \
         regression diffs.  See doc/OBSERVABILITY.md."
  in
  exit
    (Cmd.eval
       (Cmd.v info Term.(const run $ files_arg $ json_arg $ top_arg $ diff_arg)))
