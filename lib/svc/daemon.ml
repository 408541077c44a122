module Sjson = Qxm_json.Sjson
module Circuit = Qxm_circuit.Circuit
module Qasm = Qxm_circuit.Qasm
module Coupling = Qxm_arch.Coupling
module Devices = Qxm_arch.Devices
module Strategy = Qxm_exact.Strategy
module Portfolio = Qxm_exact.Portfolio
module Certify = Qxm_exact.Certify
module Mapper = Qxm_exact.Mapper
module Pool = Qxm_par.Pool
module Cancel = Qxm_par.Cancel
module Metrics = Qxm_obs.Metrics
module Trace = Qxm_obs.Trace
module Flight = Qxm_obs.Flight

let requests_total = Metrics.counter "svc.requests"
let done_total = Metrics.counter "svc.done"
let failed_total = Metrics.counter "svc.failed"
let rejected_total = Metrics.counter "svc.rejected"
let deadline_expiries = Metrics.counter "svc.deadline_expiries"
let watchdog_cancels = Metrics.counter "svc.watchdog_cancels"
let verify_rejects = Metrics.counter "svc.cache_verify_rejects"
let hits_served = Metrics.counter "svc.cache_hits_served"
let certs_emitted = Metrics.counter "svc.certificates_emitted"
let cert_failures = Metrics.counter "svc.certificate_failures"

type config = {
  jobs : int;
  watermark : int;
  default_budget : float option;
  cache_dir : string option;
  cache_mem : int;
  use_cache : bool;
  certificates : bool;
  portfolio : Portfolio.options;
}

let default_config =
  {
    jobs = 2;
    watermark = 32;
    default_budget = None;
    cache_dir = None;
    cache_mem = 128;
    use_cache = true;
    certificates = false;
    portfolio = Portfolio.default;
  }

(* The watchdog scans every [watchdog_period] seconds and force-cancels
   a request [watchdog_grace] seconds past its deadline: the portfolio
   returns by the deadline on its own, so the watchdog is only the
   backstop for a stuck solve. *)
let watchdog_period = 0.05
let watchdog_grace = 0.5

type request = {
  req_id : string;
  circuit : Circuit.t;
  device : Coupling.t;
  device_name : string;
  strategy : Strategy.t;
  budget : float option;
  use_cache : bool;
}

type payload = {
  qasm : string;
  f_cost : int;
  total_gates : int;
  provenance : string;
  optimal : bool;
  verified : bool option;
  notes : string list;
  runtime : float;
  cached : bool;
}

type response =
  | Done of payload
  | Shed of { depth : int; retry_after : float }
  | Rejected of string
  | Failed of string

(* In-flight registry the watchdog scans: request id -> absolute
   deadline (None = unbounded) and the supervisor token to fire. *)
type inflight = { deadline : float option; token : Cancel.t }

type t = {
  config : config;
  pool : Pool.t;
  admission : Admission.t;
  cache : Cache.t;
  inflight : (string, inflight) Hashtbl.t;
  inflight_lock : Mutex.t;
  stop_watchdog : bool Atomic.t;
  watchdog : unit Domain.t option;
  mutable accepting : bool;
  state_lock : Mutex.t;
}

(* -- watchdog ------------------------------------------------------------- *)

let watchdog_scan t =
  let now = Unix.gettimeofday () in
  Mutex.lock t.inflight_lock;
  let stuck =
    Hashtbl.fold
      (fun id entry acc ->
        match entry.deadline with
        | Some d
          when now > d +. watchdog_grace
               && not (Cancel.cancelled entry.token) ->
            (id, entry.token) :: acc
        | _ -> acc)
      t.inflight []
  in
  Mutex.unlock t.inflight_lock;
  List.iter
    (fun (id, token) ->
      Metrics.incr watchdog_cancels;
      Trace.instant ~args:[ ("request", Trace.Str id) ] "svc.watchdog_cancel";
      (* Snapshot the flight ring before firing the token: the recent
         spans and solver samples explain *why* this request blew its
         deadline, and the cancel is about to unwind them. *)
      ignore (Flight.dump ~reason:("watchdog_cancel " ^ id) ());
      Cancel.cancel token)
    stuck

let register_inflight t ~id ~deadline ~token =
  Mutex.lock t.inflight_lock;
  Hashtbl.replace t.inflight id { deadline; token };
  Mutex.unlock t.inflight_lock

let unregister_inflight t ~id =
  Mutex.lock t.inflight_lock;
  Hashtbl.remove t.inflight id;
  Mutex.unlock t.inflight_lock

(* -- construction --------------------------------------------------------- *)

let create ?(config = default_config) () =
  let config = { config with jobs = max 1 config.jobs } in
  let t =
    {
      config;
      (* [jobs] dedicated workers: width jobs+1 counts the submitting
         thread, which serves the wire loop and does not help *)
      pool = Pool.create (config.jobs + 1);
      admission = Admission.create ~watermark:config.watermark;
      cache = Cache.create ?dir:config.cache_dir ~mem_capacity:config.cache_mem ();
      inflight = Hashtbl.create 32;
      inflight_lock = Mutex.create ();
      stop_watchdog = Atomic.make false;
      watchdog = None;
      accepting = true;
      state_lock = Mutex.create ();
    }
  in
  let watchdog =
    Domain.spawn (fun () ->
        while not (Atomic.get t.stop_watchdog) do
          watchdog_scan t;
          Unix.sleepf watchdog_period
        done)
  in
  { t with watchdog = Some watchdog }

let cache_quarantined_on_open t = Cache.quarantined_on_open t.cache

(* -- cache key and payload serialization ---------------------------------- *)

let cache_key (req : request) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "qxmapd-v1\n";
  Buffer.add_string buf req.device_name;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (string_of_int (Coupling.num_qubits req.device));
  List.iter
    (fun (a, b) -> Buffer.add_string buf (Printf.sprintf " %d>%d" a b))
    (Coupling.edges req.device);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Strategy.name req.strategy);
  Buffer.add_char buf '\n';
  (match req.budget with
  | None -> Buffer.add_string buf "unbounded"
  | Some b -> Buffer.add_string buf (Printf.sprintf "%.6f" b));
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Qasm.to_string req.circuit);
  Chash.digest (Buffer.contents buf)

let json_of_payload (p : payload) =
  Sjson.Obj
    [
      ("qasm", Sjson.Str p.qasm);
      ("f_cost", Sjson.Num (float_of_int p.f_cost));
      ("total_gates", Sjson.Num (float_of_int p.total_gates));
      ("provenance", Sjson.Str p.provenance);
      ("optimal", Sjson.Bool p.optimal);
      ( "verified",
        match p.verified with None -> Sjson.Null | Some b -> Sjson.Bool b );
      ("notes", Sjson.List (List.map (fun n -> Sjson.Str n) p.notes));
      ("runtime_s", Sjson.Num p.runtime);
    ]

let payload_of_json j =
  let str k = Option.bind (Sjson.member k j) Sjson.to_string_opt in
  let num k = Option.bind (Sjson.member k j) Sjson.to_int_opt in
  match (str "qasm", num "f_cost", num "total_gates", str "provenance") with
  | Some qasm, Some f_cost, Some total_gates, Some provenance ->
      Ok
        {
          qasm;
          f_cost;
          total_gates;
          provenance;
          optimal =
            Option.value ~default:false
              (Option.bind (Sjson.member "optimal" j) Sjson.to_bool_opt);
          verified =
            Option.bind (Sjson.member "verified" j) Sjson.to_bool_opt;
          notes =
            (match Sjson.member "notes" j with
            | Some (Sjson.List items) ->
                List.filter_map Sjson.to_string_opt items
            | _ -> []);
          runtime =
            Option.value ~default:0.0
              (Option.bind (Sjson.member "runtime_s" j) Sjson.to_float_opt);
          cached = false;
        }
  | _ -> Error "payload missing required fields"

(* A cache hit is only served after the stored circuit re-passes
   structural certification against the *requested* architecture: a
   colliding key, a stale device definition or silent corruption that
   beat the checksum all fail here and fall through to a fresh solve. *)
let verified_hit ~(req : request) payload_str =
  match Sjson.parse payload_str with
  | Error e -> Error e
  | Ok j -> (
      match payload_of_json j with
      | Error e -> Error e
      | Ok p -> (
          match Qasm.parse_string p.qasm with
          | exception Qasm.Parse_error { message; _ } -> Error message
          | circuit -> (
              match Certify.compliance ~arch:req.device circuit with
              | Error e -> Error ("certification failed: " ^ e)
              | Ok () -> Ok { p with cached = true })))

(* -- certificate store ----------------------------------------------------

   With certificates enabled and a disk cache tier configured, every
   freshly solved proven-optimal answer leaves a QXMCERT1 artifact at
   <cache-dir>/<key>.cert.json, next to the cache entry it vouches for.
   The `audit` wire op (and the offline qxm_audit binary) re-validates
   it without trusting this process. *)

let certificate_path t ~key =
  Option.map
    (fun dir -> Filename.concat dir (key ^ ".cert.json"))
    (Cache.dir t.cache)

let store_certificate t (req : request) ~key (r : Portfolio.report) =
  if t.config.certificates && r.Portfolio.optimal then
    match certificate_path t ~key with
    | None -> ()
    | Some path -> (
        let options =
          {
            t.config.portfolio with
            Portfolio.exact =
              {
                t.config.portfolio.exact with
                Mapper.strategy = req.strategy;
                certificate = true;
              };
          }
        in
        match
          Qxm_audit.Emit.of_portfolio ~device_name:req.device_name
            ~arch:req.device ~circuit:req.circuit ~options r
        with
        | Ok cert ->
            let tmp = path ^ ".tmp" in
            Out_channel.with_open_bin tmp (fun oc ->
                Out_channel.output_string oc
                  (Qxm_audit.Certificate.to_string cert));
            Sys.rename tmp path;
            Metrics.incr certs_emitted
        | Error _ | (exception _) -> Metrics.incr cert_failures)

let audit_certificate t ~key =
  match certificate_path t ~key with
  | None -> Error "certificates require a disk cache (--cache-dir)"
  | Some path ->
      if not (Sys.file_exists path) then
        Error (Printf.sprintf "no certificate stored for key %s" key)
      else
        let contents =
          In_channel.with_open_bin path In_channel.input_all
        in
        Ok (Qxm_audit.Auditor.audit_string contents)

(* -- request execution ---------------------------------------------------- *)

let solve t ?key (req : request) : response =
  let budget =
    match req.budget with None -> t.config.default_budget | b -> b
  in
  let token = Cancel.create () in
  let deadline = Option.map (fun b -> Unix.gettimeofday () +. b) budget in
  register_inflight t ~id:req.req_id ~deadline ~token;
  (* The request id rides on the solve span so offline tools (qxm_prof,
     and its --check --request-ids) can attribute solver work to the
     request that caused it even after the spans are interleaved across
     domains. *)
  Trace.with_span ~name:"svc.solve"
    ~args:[ ("request", Trace.Str req.req_id) ]
  @@ fun () ->
  Fun.protect
    ~finally:(fun () -> unregister_inflight t ~id:req.req_id)
    (fun () ->
      let options =
        {
          t.config.portfolio with
          exact =
            {
              t.config.portfolio.exact with
              strategy = req.strategy;
              jobs = 1;
              certificate = t.config.certificates;
            };
          budget;
          (* one worker per request: throughput comes from the pool *)
          jobs = 1;
        }
      in
      (* A seeded exact lane falls back to its DP routing, and SABRE
         answers whenever the exact lane still comes back empty, so an
         [Error] is a property of the input (too many logical qubits, a
         disconnected device) that a second run would only repeat. *)
      match Portfolio.run ~options ~cancel:token ~arch:req.device req.circuit with
      | Ok r ->
          if
            List.mem "deadline_expired" r.notes
            || List.mem "cancelled" r.notes
          then Metrics.incr deadline_expiries;
          Option.iter (fun key -> store_certificate t req ~key r) key;
          Done
            {
              qasm = Qasm.to_string r.elementary;
              f_cost = r.f_cost;
              total_gates = r.total_gates;
              provenance = Portfolio.provenance_string r.provenance;
              optimal = r.optimal;
              verified = r.verified;
              notes = r.notes;
              runtime = r.runtime;
              cached = false;
            }
      | Error e -> Failed (Format.asprintf "%a" Portfolio.pp_failure e)
      | exception e -> Failed (Printexc.to_string e))

let handle t (req : request) : response =
  Metrics.incr requests_total;
  Trace.with_span ~name:"svc.request"
    ~args:[ ("id", Trace.Str req.req_id) ]
  @@ fun () ->
  let use_cache = t.config.use_cache && req.use_cache in
  let key = cache_key req in
  let cached =
    if not use_cache then None
    else
      match Cache.find t.cache ~key with
      | None -> None
      | Some payload_str -> (
          match verified_hit ~req payload_str with
          | Ok p ->
              Metrics.incr hits_served;
              Some p
          | Error _ ->
              (* quarantine, don't serve: fall through to a fresh solve *)
              Metrics.incr verify_rejects;
              Cache.invalidate t.cache ~key;
              None)
  in
  let response =
    match cached with
    | Some p -> Done p
    | None -> (
        match solve t ~key req with
        | Done p as resp ->
            if use_cache then
              Cache.store t.cache ~key (Sjson.print (json_of_payload p));
            resp
        | resp -> resp)
  in
  (match response with
  | Done _ -> Metrics.incr done_total
  | Failed _ ->
      Metrics.incr failed_total;
      (* A faulted request is exactly when the recent history matters;
         dump the flight ring while it is still warm. *)
      ignore (Flight.dump ~reason:("request_failed " ^ req.req_id) ())
  | Rejected _ | Shed _ -> Metrics.incr rejected_total);
  response

let guarded t req =
  match Admission.try_admit t.admission with
  | Shed { depth; retry_after } -> `Shed (Shed { depth; retry_after })
  | Admitted ->
      if
        Mutex.lock t.state_lock;
        let a = t.accepting in
        Mutex.unlock t.state_lock;
        not a
      then begin
        Admission.release t.admission;
        `Shed (Rejected "daemon is shutting down")
      end
      else `Run req

let submit t req =
  match guarded t req with
  | `Shed resp -> resp
  | `Run req ->
      Fun.protect
        ~finally:(fun () -> Admission.release t.admission)
        (fun () -> try handle t req with e -> Failed (Printexc.to_string e))

let submit_async t req callback =
  match guarded t req with
  | `Shed resp -> callback resp
  | `Run req ->
      ignore
        (Pool.submit ~label:"svc.request" t.pool (fun () ->
             Fun.protect
               ~finally:(fun () -> Admission.release t.admission)
               (fun () ->
                 let resp =
                   try handle t req with e -> Failed (Printexc.to_string e)
                 in
                 callback resp)))

let drain t =
  (* Admission depth counts queued + running requests; sheds release
     synchronously, so depth 0 means quiescent. *)
  while Admission.depth t.admission > 0 do
    Unix.sleepf 0.005
  done

let shutdown t =
  Mutex.lock t.state_lock;
  let was = t.accepting in
  t.accepting <- false;
  Mutex.unlock t.state_lock;
  drain t;
  if was then begin
    Atomic.set t.stop_watchdog true;
    Option.iter Domain.join t.watchdog;
    Pool.shutdown t.pool
  end

(* -- wire protocol -------------------------------------------------------- *)

let parse_request ?(default_device = (Devices.qx4, "qx4"))
    ?(default_budget = None) ?gen_id j =
  let str k = Option.bind (Sjson.member k j) Sjson.to_string_opt in
  let id =
    match (str "id", gen_id) with
    | Some id, _ -> Ok id
    | None, Some gen -> Ok (gen ())
    | None, None -> Error "missing 'id'"
  in
  match id with
  | Error e -> Error e
  | Ok req_id -> (
      match str "qasm" with
      | None -> Error "missing 'qasm' field"
      | Some qasm -> (
          match Qasm.parse_string qasm with
          | exception Qasm.Parse_error { line; message } ->
              Error (Printf.sprintf "qasm:%d: %s" line message)
          | circuit -> (
              if Circuit.count_swaps circuit > 0 then
                Error
                  "circuit contains SWAP gates; decompose them before \
                   submitting"
              else
                let device =
                  match str "device" with
                  | None -> Ok default_device
                  | Some name -> (
                      match Devices.by_name name with
                      | Some d -> Ok (d, name)
                      | None ->
                          Error
                            (Printf.sprintf "unknown device %S (try: %s)" name
                               (String.concat ", " Devices.names)))
                in
                match device with
                | Error e -> Error e
                | Ok (device, device_name) -> (
                    let strategy =
                      match str "strategy" with
                      | None -> Ok Strategy.Minimal
                      | Some name -> (
                          match Strategy.of_string name with
                          | Some s -> Ok s
                          | None ->
                              Error (Printf.sprintf "unknown strategy %S" name))
                    in
                    match strategy with
                    | Error e -> Error e
                    | Ok strategy -> (
                        let budget =
                          match Sjson.member "budget" j with
                          | None | Some Sjson.Null -> Ok default_budget
                          | Some (Sjson.Num b) ->
                              Result.map Option.some
                                (Validate.pos_float ~flag:"budget"
                                   ~unit:"seconds" b)
                          | Some (Sjson.Str s) ->
                              Result.map Option.some
                                (Validate.parse_pos_float ~flag:"budget"
                                   ~unit:"seconds" s)
                          | Some _ ->
                              Error
                                "budget must be a positive finite number of \
                                 seconds"
                        in
                        match budget with
                        | Error e -> Error e
                        | Ok budget ->
                            let use_cache =
                              Option.value ~default:true
                                (Option.bind (Sjson.member "cache" j)
                                   Sjson.to_bool_opt)
                            in
                            Ok
                              {
                                req_id;
                                circuit;
                                device;
                                device_name;
                                strategy;
                                budget;
                                use_cache;
                              })))))

let response_json ~id resp =
  let base = [ ("id", Sjson.Str id) ] in
  match resp with
  | Done p ->
      Sjson.Obj
        (base
        @ [
            ("status", Sjson.Str "ok");
            ("cached", Sjson.Bool p.cached);
            ("f_cost", Sjson.Num (float_of_int p.f_cost));
            ("total_gates", Sjson.Num (float_of_int p.total_gates));
            ("provenance", Sjson.Str p.provenance);
            ("optimal", Sjson.Bool p.optimal);
            ( "verified",
              match p.verified with
              | None -> Sjson.Null
              | Some b -> Sjson.Bool b );
            ("notes", Sjson.List (List.map (fun n -> Sjson.Str n) p.notes));
            ("runtime_s", Sjson.Num p.runtime);
            ("qasm", Sjson.Str p.qasm);
          ])
  | Shed { depth; retry_after } ->
      Sjson.Obj
        (base
        @ [
            ("status", Sjson.Str "shed");
            ("depth", Sjson.Num (float_of_int depth));
            ("retry_after_s", Sjson.Num retry_after);
          ])
  | Rejected msg ->
      Sjson.Obj (base @ [ ("status", Sjson.Str "invalid"); ("error", Sjson.Str msg) ])
  | Failed msg ->
      Sjson.Obj (base @ [ ("status", Sjson.Str "error"); ("error", Sjson.Str msg) ])

let metrics_text () = Metrics.render_text (Metrics.snapshot ())
