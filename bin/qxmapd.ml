(* qxmapd — the mapping service daemon.

   Line-JSON protocol over stdin/stdout: one request object per input
   line, one response object per output line, correlated by "id" (the
   daemon assigns req-N when absent).  Operations:

     {"op":"map", "qasm":"...", "device":"qx4", "strategy":"minimal",
      "budget":2.5, "cache":true, "id":"r1"}
     {"op":"audit", "key":"..."} (or the same fields as "map")
                        -> re-validate the stored optimality certificate
     {"op":"metrics"}   -> {"status":"ok","metrics":"<name value lines>"}
     {"op":"ping"}      -> {"status":"ok"}
     {"op":"shutdown"}  -> drain, answer, exit

   EOF on stdin drains in-flight requests and exits cleanly.  Responses
   are written as each request completes, so under -j > 1 they may be
   out of order — correlate by id.  See doc/SERVICE.md. *)

open Cmdliner
module Daemon = Qxm_svc.Daemon
module Sjson = Qxm_json.Sjson
module Validate = Qxm_svc.Validate
module Fault = Qxm_sat.Fault
module Flight = Qxm_obs.Flight

(* cmdliner converters that funnel through Qxm_svc.Validate, so the
   daemon flags and the request fields reject bad numbers with the same
   one-line message. *)
let pos_float_conv ~flag ~unit =
  let parse s =
    match Validate.parse_pos_float ~flag ~unit s with
    | Ok v -> Ok v
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun fmt v -> Format.fprintf fmt "%g" v)

let pos_int_conv ~flag ~unit =
  let parse s =
    match Validate.parse_pos_int ~flag ~unit s with
    | Ok v -> Ok v
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun fmt v -> Format.fprintf fmt "%d" v)

let inject_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Fault.of_string s) in
  Arg.conv (parse, fun fmt _ -> Format.fprintf fmt "<fault>")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persistent result-cache directory (created if missing; corrupt \
           entries are quarantined into DIR/quarantine on startup).  \
           Default: in-memory cache only.")

let cache_mem_arg =
  Arg.(
    value
    & opt (pos_int_conv ~flag:"--cache-mem" ~unit:"entries") 128
    & info [ "cache-mem" ] ~docv:"N"
        ~doc:"In-memory cache tier capacity, in entries.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ] ~doc:"Disable the result cache entirely.")

let certificates_arg =
  Arg.(
    value & flag
    & info [ "certificates" ]
        ~doc:
          "Store a QXMCERT1 optimality certificate next to each cache \
           entry for every freshly solved proven-optimal answer \
           (requires --cache-dir).  Certificates are re-validated \
           offline with qxm_audit, or in-band with the \"audit\" op.  \
           See doc/CERTIFICATES.md.")

let jobs_arg =
  Arg.(
    value
    & opt (pos_int_conv ~flag:"--jobs" ~unit:"worker domains") 2
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Worker domains executing requests concurrently.")

let watermark_arg =
  Arg.(
    value
    & opt (pos_int_conv ~flag:"--queue" ~unit:"requests") 32
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Admission watermark: past N in-flight requests, new ones are \
           shed with status \"shed\" and a retry_after_s hint.")

let budget_arg =
  Arg.(
    value
    & opt (some (pos_float_conv ~flag:"--budget" ~unit:"seconds")) None
    & info [ "budget" ] ~docv:"SECONDS"
        ~doc:
          "Default per-request wall-clock budget applied when a request \
           carries none.  An expired request returns the best certified \
           incumbent with a deadline_expired note.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write a final metrics snapshot to FILE on shutdown.")

let flight_record_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-record" ] ~docv:"FILE"
        ~doc:
          "Keep a fixed-size in-memory ring of recent trace events, \
           solver search-state samples among them, and dump it to FILE \
           (NDJSON, written atomically) when a request is force-cancelled \
           by the watchdog, fails, or the process takes a fatal signal.  \
           Analyse the dump with qxm_prof.  See doc/OBSERVABILITY.md.")

let inject_arg =
  Arg.(
    value
    & opt (some inject_conv) None
    & info [ "inject" ] ~docv:"FAULT"
        ~doc:
          "Testing knob: arm deterministic SAT fault injection (unknown, \
           after=N, truncate=N, seed=K:P), as in qxmap map --inject.")

let serve cache_dir cache_mem no_cache certificates jobs watermark budget
    metrics_out flight_record inject =
  Option.iter Fault.arm inject;
  if certificates && cache_dir = None then begin
    Printf.eprintf "qxmapd: --certificates requires --cache-dir\n%!";
    exit 2
  end;
  (match flight_record with
  | None -> ()
  | Some path ->
      (* Flight recorder: trace events, the solver's samples among
         them, flow into the ring via the sink; a fatal signal dumps
         whatever is in flight before the process dies. *)
      Flight.enable ~path ();
      let dump_and_die signal =
        let name =
          if signal = Sys.sigterm then "SIGTERM"
          else if signal = Sys.sigint then "SIGINT"
          else if signal = Sys.sighup then "SIGHUP"
          else string_of_int signal
        in
        ignore (Flight.dump ~reason:("signal " ^ name) ());
        exit 130
      in
      List.iter
        (fun s -> Sys.set_signal s (Sys.Signal_handle dump_and_die))
        [ Sys.sigterm; Sys.sigint; Sys.sighup ]);
  let config =
    {
      Daemon.default_config with
      jobs;
      watermark;
      default_budget = budget;
      cache_dir;
      cache_mem;
      use_cache = not no_cache;
      certificates;
    }
  in
  let daemon = Daemon.create ~config () in
  if Daemon.cache_quarantined_on_open daemon > 0 then
    Printf.eprintf "qxmapd: quarantined %d corrupt cache entr%s on startup\n%!"
      (Daemon.cache_quarantined_on_open daemon)
      (if Daemon.cache_quarantined_on_open daemon = 1 then "y" else "ies");
  let out_lock = Mutex.create () in
  let respond json =
    Mutex.lock out_lock;
    print_string (Sjson.print json);
    print_newline ();
    flush stdout;
    Mutex.unlock out_lock
  in
  let next_id = Atomic.make 0 in
  let gen_id () = Printf.sprintf "req-%d" (Atomic.fetch_and_add next_id 1) in
  let running = ref true in
  while !running do
    match In_channel.input_line stdin with
    | None -> running := false
    | Some line when String.trim line = "" -> ()
    | Some line -> (
        match Sjson.parse line with
        | Error e ->
            respond
              (Sjson.Obj
                 [
                   ("id", Sjson.Null);
                   ("status", Sjson.Str "invalid");
                   ("error", Sjson.Str ("bad JSON: " ^ e));
                 ])
        | Ok j -> (
            let id =
              match Option.bind (Sjson.member "id" j) Sjson.to_string_opt with
              | Some id -> id
              | None -> gen_id ()
            in
            let op =
              Option.value ~default:"map"
                (Option.bind (Sjson.member "op" j) Sjson.to_string_opt)
            in
            match op with
            | "ping" ->
                respond
                  (Sjson.Obj
                     [ ("id", Sjson.Str id); ("status", Sjson.Str "ok") ])
            | "metrics" ->
                respond
                  (Sjson.Obj
                     [
                       ("id", Sjson.Str id);
                       ("status", Sjson.Str "ok");
                       ("metrics", Sjson.Str (Daemon.metrics_text ()));
                     ])
            | "shutdown" ->
                Daemon.drain daemon;
                respond
                  (Sjson.Obj
                     [ ("id", Sjson.Str id); ("status", Sjson.Str "ok") ]);
                running := false
            | "map" -> (
                match
                  Daemon.parse_request ~default_budget:budget
                    ~gen_id:(fun () -> id)
                    j
                with
                | Error e ->
                    respond
                      (Daemon.response_json ~id (Daemon.Rejected e))
                | Ok req ->
                    Daemon.submit_async daemon req (fun resp ->
                        respond (Daemon.response_json ~id resp)))
            | "audit" -> (
                (* Re-validate the stored certificate of a previous map
                   request: either by explicit cache "key", or by the
                   same request fields, re-deriving the key. *)
                let key =
                  match
                    Option.bind (Sjson.member "key" j) Sjson.to_string_opt
                  with
                  | Some key -> Ok key
                  | None ->
                      Result.map Daemon.cache_key
                        (Daemon.parse_request ~default_budget:budget
                           ~gen_id:(fun () -> id)
                           j)
                in
                match Result.bind key (fun key ->
                        Result.map (fun r -> (key, r))
                          (Daemon.audit_certificate daemon ~key))
                with
                | Error e ->
                    respond (Daemon.response_json ~id (Daemon.Rejected e))
                | Ok (key, report) ->
                    respond
                      (Sjson.Obj
                         [
                           ("id", Sjson.Str id);
                           ("status", Sjson.Str "ok");
                           ("key", Sjson.Str key);
                           ( "audit_ok",
                             Sjson.Bool report.Qxm_audit.Auditor.ok );
                           ( "diagnostics",
                             Sjson.List
                               (List.map
                                  (fun d ->
                                    Sjson.Str
                                      (Qxm_lint.Diagnostic.to_string d))
                                  report.Qxm_audit.Auditor.diagnostics) );
                         ]))
            | other ->
                respond
                  (Daemon.response_json ~id
                     (Daemon.Rejected
                        (Printf.sprintf
                           "unknown op %S (try: map, audit, metrics, ping, \
                            shutdown)"
                           other)))))
  done;
  Daemon.shutdown daemon;
  (match metrics_out with
  | None -> ()
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (Daemon.metrics_text ())));
  0

let () =
  let info =
    Cmd.info "qxmapd" ~version:"1.0.0"
      ~doc:
        "Crash-safe mapping service: line-JSON requests on stdin, \
         responses on stdout, with per-request deadlines, admission \
         control and a persistent verified result cache.  See \
         doc/SERVICE.md."
  in
  exit
    (Cmd.eval'
       (Cmd.v info
          Term.(
            const serve $ cache_dir_arg $ cache_mem_arg $ no_cache_arg
            $ certificates_arg $ jobs_arg $ watermark_arg $ budget_arg
            $ metrics_out_arg $ flight_record_arg $ inject_arg)))
