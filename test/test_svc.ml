(* The service layer: boundary validation, the JSON wire format,
   content hashing, admission control, the crash-safe result cache and
   the daemon end-to-end.

   Everything here is deterministic: overload is staged by blocking a
   completion callback (never the wall clock), faults by Qxm_sat.Fault
   schedules, and cache corruption by direct byte surgery on the
   persisted entries. *)

open Test_util
module Validate = Qxm_svc.Validate
module Sjson = Qxm_json.Sjson
module Chash = Qxm_svc.Chash
module Admission = Qxm_svc.Admission
module Cache = Qxm_svc.Cache
module Daemon = Qxm_svc.Daemon
module Fault = Qxm_sat.Fault
module Trace = Qxm_obs.Trace
module Portfolio = Qxm_exact.Portfolio
module Certify = Qxm_exact.Certify
module Strategy = Qxm_exact.Strategy
module Devices = Qxm_arch.Devices
module Qasm = Qxm_circuit.Qasm
module Circuit = Qxm_circuit.Circuit
module Examples = Qxm_benchmarks.Examples

let temp_dir () = Filename.temp_dir "qxm_svc_test" ""

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let entry_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".entry")

let quarantine_count dir =
  let q = Filename.concat dir "quarantine" in
  if Sys.file_exists q then Array.length (Sys.readdir q) else 0

(* -- validation ---------------------------------------------------------- *)

let test_validate_accepts () =
  Alcotest.(check (result (float 0.0) string))
    "pos_float ok" (Ok 2.5)
    (Validate.pos_float ~flag:"--timeout" ~unit:"seconds" 2.5);
  Alcotest.(check (result int string))
    "pos_int ok" (Ok 3)
    (Validate.pos_int ~flag:"--jobs" 3);
  Alcotest.(check (result (float 0.0) string))
    "parse_pos_float ok" (Ok 0.25)
    (Validate.parse_pos_float ~flag:"--budget" ~unit:"seconds" "0.25")

let test_validate_rejects () =
  let expect_err name result fragment =
    match result with
    | Ok _ -> Alcotest.failf "%s: expected rejection" name
    | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: message mentions %S (got %S)" name fragment msg)
          true
          (contains_substring msg fragment)
  in
  expect_err "zero"
    (Validate.pos_float ~flag:"--timeout" ~unit:"seconds" 0.0)
    "--timeout";
  expect_err "negative"
    (Validate.pos_float ~flag:"--timeout" ~unit:"seconds" (-1.0))
    "positive";
  expect_err "nan" (Validate.pos_float ~flag:"--budget" Float.nan) "--budget";
  expect_err "infinite"
    (Validate.pos_float ~flag:"--budget" Float.infinity)
    "got";
  expect_err "not a number"
    (Validate.parse_pos_float ~flag:"--timeout" ~unit:"seconds" "soon")
    "'soon'";
  expect_err "pos_int zero" (Validate.pos_int ~flag:"--jobs" 0) "--jobs";
  expect_err "parse_pos_int junk"
    (Validate.parse_pos_int ~flag:"--jobs" "many")
    "'many'"

(* -- JSON ---------------------------------------------------------------- *)

let test_sjson_roundtrip () =
  let v =
    Sjson.Obj
      [
        ("s", Sjson.Str "line\nbreak \"quoted\" \\slash\x01");
        ("n", Sjson.Num 2.5);
        ("i", Sjson.Num 42.0);
        ("b", Sjson.Bool true);
        ("z", Sjson.Null);
        ("l", Sjson.List [ Sjson.Num 1.0; Sjson.Str "x"; Sjson.Obj [] ]);
      ]
  in
  match Sjson.parse (Sjson.print v) with
  | Ok v' -> Alcotest.(check bool) "round trips" true (v = v')
  | Error e -> Alcotest.failf "reparse failed: %s" e

let test_sjson_unicode () =
  (match Sjson.parse {|"caf\u00e9"|} with
  | Ok (Sjson.Str s) -> Alcotest.(check string) "BMP escape" "caf\xc3\xa9" s
  | _ -> Alcotest.fail "BMP escape did not parse");
  match Sjson.parse {|"\ud83d\ude00"|} with
  | Ok (Sjson.Str s) ->
      Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "surrogate pair did not parse"

let test_sjson_rejects () =
  let bad =
    [
      ("unterminated object", "{");
      ("trailing comma", "[1,]");
      ("trailing garbage", "1 2");
      ("missing value", {|{"a":}|});
      ("bare word", "yes");
      ("lone surrogate", {|"\ud83d"|});
      ("deep nesting", String.concat "" (List.init 200 (fun _ -> "[")));
    ]
  in
  List.iter
    (fun (name, src) ->
      match Sjson.parse src with
      | Ok _ -> Alcotest.failf "%s: expected a parse error" name
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: error is descriptive" name)
            true
            (String.length msg > 0))
    bad

let test_sjson_accessors () =
  let j =
    Result.get_ok (Sjson.parse {|{"a": 3, "b": "x", "c": true, "d": 1.5}|})
  in
  Alcotest.(check (option int)) "int" (Some 3)
    (Option.bind (Sjson.member "a" j) Sjson.to_int_opt);
  Alcotest.(check (option int)) "non-integral int" None
    (Option.bind (Sjson.member "d" j) Sjson.to_int_opt);
  Alcotest.(check (option string)) "string" (Some "x")
    (Option.bind (Sjson.member "b" j) Sjson.to_string_opt);
  Alcotest.(check (option bool)) "bool" (Some true)
    (Option.bind (Sjson.member "c" j) Sjson.to_bool_opt);
  Alcotest.(check (option string)) "missing" None
    (Option.bind (Sjson.member "zzz" j) Sjson.to_string_opt)

(* -- content hashing ----------------------------------------------------- *)

let test_chash () =
  let d = Chash.digest "hello" in
  Alcotest.(check int) "32 hex digits" 32 (String.length d);
  String.iter
    (fun c ->
      Alcotest.(check bool) "hex alphabet" true
        ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
    d;
  Alcotest.(check string) "deterministic" d (Chash.digest "hello");
  Alcotest.(check bool) "distinct inputs, distinct digests" true
    (Chash.digest "hello" <> Chash.digest "hellp");
  Alcotest.(check bool) "empty input hashes" true
    (String.length (Chash.digest "") = 32)

(* -- admission control --------------------------------------------------- *)

let test_admission_watermark () =
  let a = Admission.create ~watermark:2 in
  Alcotest.(check bool) "first admitted" true (Admission.try_admit a = Admitted);
  Alcotest.(check bool) "second admitted" true
    (Admission.try_admit a = Admitted);
  (match Admission.try_admit a with
  | Admitted -> Alcotest.fail "third should shed"
  | Shed { depth; retry_after } ->
      Alcotest.(check int) "shed reports depth" 2 depth;
      Alcotest.(check (float 1e-9)) "retry-after hint" 0.1 retry_after);
  Alcotest.(check int) "sheds counted" 1 (Admission.sheds a);
  Admission.release a;
  Alcotest.(check bool) "slot freed" true (Admission.try_admit a = Admitted);
  Admission.release a;
  Admission.release a;
  Alcotest.(check int) "drained" 0 (Admission.depth a)

let test_admission_burst_shed () =
  (* A burst of 10 arrivals against a watermark of 3: exactly 3 are
     admitted, 7 shed, and after releasing everything the gate is
     clean for the retry wave. *)
  let a = Admission.create ~watermark:3 in
  let verdicts = List.init 10 (fun _ -> Admission.try_admit a) in
  let admitted =
    List.length (List.filter (fun v -> v = Admission.Admitted) verdicts)
  in
  Alcotest.(check int) "admitted up to watermark" 3 admitted;
  Alcotest.(check int) "rest shed" 7 (Admission.sheds a);
  Alcotest.(check int) "depth at watermark" 3 (Admission.depth a);
  List.iter
    (fun v -> if v = Admission.Admitted then Admission.release a)
    verdicts;
  Alcotest.(check int) "all released" 0 (Admission.depth a);
  Alcotest.(check bool) "retry wave admitted" true
    (Admission.try_admit a = Admitted)

let test_admission_invalid_watermark () =
  Alcotest.check_raises "zero watermark"
    (Invalid_argument "Admission.create: watermark must be positive")
    (fun () -> ignore (Admission.create ~watermark:0))

(* -- cache: memory tier -------------------------------------------------- *)

let k1 = Chash.digest "key-one"
let k2 = Chash.digest "key-two"
let k3 = Chash.digest "key-three"

let test_cache_lru_eviction () =
  let c = Cache.create ~mem_capacity:2 () in
  Cache.store c ~key:k1 "v1";
  Cache.store c ~key:k2 "v2";
  Alcotest.(check (option string)) "k1 hot" (Some "v1") (Cache.find c ~key:k1);
  Cache.store c ~key:k3 "v3";
  Alcotest.(check (option string))
    "k2 was least recently used, evicted" None (Cache.find c ~key:k2);
  Alcotest.(check (option string)) "k1 kept" (Some "v1") (Cache.find c ~key:k1);
  Alcotest.(check (option string)) "k3 kept" (Some "v3") (Cache.find c ~key:k3);
  Alcotest.(check bool) "bounded" true (Cache.mem_size c <= 2)

(* -- cache: disk tier and crash recovery --------------------------------- *)

let test_cache_disk_roundtrip () =
  let dir = temp_dir () in
  let a = Cache.create ~dir () in
  Cache.store a ~key:k1 "payload with\nnewlines and \x00 bytes";
  Alcotest.(check int) "one entry file" 1 (List.length (entry_files dir));
  Alcotest.(check bool) "no stray temp files" true
    (Array.for_all
       (fun f -> not (String.length f > 4 && String.sub f 0 4 = ".tmp"))
       (Sys.readdir dir));
  (* a second instance — "after restart" — serves the persisted entry *)
  let b = Cache.create ~dir () in
  Alcotest.(check int) "clean scan" 0 (Cache.quarantined_on_open b);
  Alcotest.(check (option string))
    "survives restart"
    (Some "payload with\nnewlines and \x00 bytes")
    (Cache.find b ~key:k1)

let test_cache_truncated_entry_quarantined () =
  let dir = temp_dir () in
  let a = Cache.create ~dir () in
  Cache.store a ~key:k1 "a payload long enough to truncate meaningfully";
  let file = Filename.concat dir (List.hd (entry_files dir)) in
  let bytes = read_file file in
  write_file file (String.sub bytes 0 (String.length bytes / 2));
  let b = Cache.create ~dir () in
  Alcotest.(check int) "startup scan quarantined it" 1
    (Cache.quarantined_on_open b);
  Alcotest.(check int) "preserved for inspection" 1 (quarantine_count dir);
  Alcotest.(check (option string))
    "miss, not a crash and not a wrong answer" None (Cache.find b ~key:k1);
  (* the service recovers: a fresh store works again *)
  Cache.store b ~key:k1 "fresh";
  let c = Cache.create ~dir () in
  Alcotest.(check (option string)) "restored" (Some "fresh")
    (Cache.find c ~key:k1)

let test_cache_bitflip_caught_at_read () =
  let dir = temp_dir () in
  let a = Cache.create ~dir () in
  Cache.store a ~key:k2 "checksummed payload";
  (* instance b passes the startup scan, THEN the file rots *)
  let b = Cache.create ~dir () in
  Alcotest.(check int) "clean at open" 0 (Cache.quarantined_on_open b);
  let file = Filename.concat dir (List.hd (entry_files dir)) in
  let bytes = Bytes.of_string (read_file file) in
  let last = Bytes.length bytes - 1 in
  Bytes.set bytes last (Char.chr (Char.code (Bytes.get bytes last) lxor 0x20));
  write_file file (Bytes.to_string bytes);
  Alcotest.(check (option string))
    "digest mismatch detected at hit time" None (Cache.find b ~key:k2);
  Alcotest.(check int) "quarantined, not deleted" 1 (quarantine_count dir)

let test_cache_stray_tmp_quarantined () =
  let dir = temp_dir () in
  write_file (Filename.concat dir ".tmp.deadbeef.1234") "half-written";
  let c = Cache.create ~dir () in
  Alcotest.(check int) "interrupted write swept up" 1
    (Cache.quarantined_on_open c);
  Alcotest.(check int) "moved to quarantine" 1 (quarantine_count dir)

let test_cache_invalidate_quarantines () =
  let dir = temp_dir () in
  let c = Cache.create ~dir () in
  Cache.store c ~key:k3 "soon to be rejected";
  Cache.invalidate c ~key:k3;
  Alcotest.(check (option string)) "gone" None (Cache.find c ~key:k3);
  Alcotest.(check int) "no entry file left" 0 (List.length (entry_files dir));
  Alcotest.(check int) "entry preserved in quarantine" 1 (quarantine_count dir)

(* -- daemon: request parsing --------------------------------------------- *)

let fig1a_qasm = Qasm.to_string Examples.fig1a

let parse_req fields =
  Daemon.parse_request
    ~gen_id:(fun () -> "generated")
    (Sjson.Obj fields)

let test_parse_request_defaults () =
  match parse_req [ ("qasm", Sjson.Str fig1a_qasm) ] with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok req ->
      Alcotest.(check string) "generated id" "generated" req.req_id;
      Alcotest.(check string) "default device" "qx4" req.device_name;
      Alcotest.(check string) "default strategy" "minimal"
        (Strategy.name req.strategy);
      Alcotest.(check bool) "no budget" true (req.budget = None);
      Alcotest.(check bool) "cache on by default" true req.use_cache;
      Alcotest.(check int) "circuit parsed" (Circuit.length Examples.fig1a)
        (Circuit.length req.circuit)

let test_parse_request_explicit () =
  match
    parse_req
      [
        ("id", Sjson.Str "r-7");
        ("qasm", Sjson.Str fig1a_qasm);
        ("device", Sjson.Str "qx2");
        ("strategy", Sjson.Str "triangle");
        ("budget", Sjson.Num 2.5);
        ("cache", Sjson.Bool false);
      ]
  with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok req ->
      Alcotest.(check string) "id" "r-7" req.req_id;
      Alcotest.(check string) "device" "qx2" req.device_name;
      Alcotest.(check string) "strategy" "triangle"
        (Strategy.name req.strategy);
      Alcotest.(check (option (float 1e-9))) "budget" (Some 2.5) req.budget;
      Alcotest.(check bool) "cache off" false req.use_cache

let test_parse_request_rejects () =
  let expect name fields fragment =
    match parse_req fields with
    | Ok _ -> Alcotest.failf "%s: expected rejection" name
    | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: message mentions %S (got %S)" name fragment msg)
          true
          (contains_substring msg fragment)
  in
  expect "missing qasm" [ ("id", Sjson.Str "x") ] "qasm";
  expect "unparsable qasm"
    [ ("qasm", Sjson.Str "qreg q[2];\ncx q[0],") ]
    "qasm:";
  expect "swap gates rejected"
    [ ("qasm", Sjson.Str "qreg q[2];\nswap q[0],q[1];\n") ]
    "SWAP";
  expect "unknown device"
    [ ("qasm", Sjson.Str fig1a_qasm); ("device", Sjson.Str "qx99") ]
    "unknown device";
  expect "unknown strategy"
    [ ("qasm", Sjson.Str fig1a_qasm); ("strategy", Sjson.Str "psychic") ]
    "unknown strategy";
  expect "zero budget"
    [ ("qasm", Sjson.Str fig1a_qasm); ("budget", Sjson.Num 0.0) ]
    "budget";
  expect "negative budget"
    [ ("qasm", Sjson.Str fig1a_qasm); ("budget", Sjson.Num (-3.0)) ]
    "budget";
  expect "nan budget"
    [ ("qasm", Sjson.Str fig1a_qasm); ("budget", Sjson.Num Float.nan) ]
    "budget";
  expect "non-numeric budget"
    [ ("qasm", Sjson.Str fig1a_qasm); ("budget", Sjson.Str "soon") ]
    "budget"

(* -- daemon: end-to-end -------------------------------------------------- *)

let request ?(id = "t") ?(budget = None) ?(use_cache = true)
    ?(circuit = Examples.fig1a) ?(device = Devices.qx4) () =
  {
    Daemon.req_id = id;
    circuit;
    device;
    device_name = "qx4";
    strategy = Strategy.Minimal;
    budget;
    use_cache;
  }

let unroutable_request ?id () =
  request ?id ~circuit:unroutable_circuit ~device:unroutable_device ()

let fast_config = { Daemon.default_config with jobs = 1 }

let expect_done name = function
  | Daemon.Done p -> p
  | Daemon.Shed _ -> Alcotest.failf "%s: unexpectedly shed" name
  | Daemon.Rejected e -> Alcotest.failf "%s: rejected: %s" name e
  | Daemon.Failed e -> Alcotest.failf "%s: failed: %s" name e

let test_daemon_solves_and_caches () =
  let d = Daemon.create ~config:fast_config () in
  Fun.protect ~finally:(fun () -> Daemon.shutdown d) @@ fun () ->
  let p1 = expect_done "cold" (Daemon.submit d (request ())) in
  Alcotest.(check bool) "cold miss" false p1.cached;
  Alcotest.(check int) "Ex. 7 optimum" 4 p1.f_cost;
  Alcotest.(check bool) "optimal" true p1.optimal;
  let p2 = expect_done "warm" (Daemon.submit d (request ())) in
  Alcotest.(check bool) "warm hit" true p2.cached;
  Alcotest.(check int) "same answer" p1.f_cost p2.f_cost;
  Alcotest.(check string) "same circuit" p1.qasm p2.qasm;
  (* cache opt-out per request *)
  let p3 =
    expect_done "uncached" (Daemon.submit d (request ~use_cache:false ()))
  in
  Alcotest.(check bool) "bypasses the cache" false p3.cached

let test_daemon_cache_survives_restart () =
  let dir = temp_dir () in
  let config = { fast_config with cache_dir = Some dir } in
  let d1 = Daemon.create ~config () in
  let p1 = expect_done "cold" (Daemon.submit d1 (request ())) in
  Daemon.shutdown d1;
  (* "kill -9": nothing about d1 survives except the cache directory *)
  let d2 = Daemon.create ~config () in
  Fun.protect ~finally:(fun () -> Daemon.shutdown d2) @@ fun () ->
  Alcotest.(check int) "clean recovery scan" 0
    (Daemon.cache_quarantined_on_open d2);
  let p2 = expect_done "after restart" (Daemon.submit d2 (request ())) in
  Alcotest.(check bool) "disk-tier warm hit" true p2.cached;
  Alcotest.(check int) "identical result" p1.f_cost p2.f_cost

let test_daemon_corrupt_cache_falls_through () =
  let dir = temp_dir () in
  let config = { fast_config with cache_dir = Some dir } in
  let d1 = Daemon.create ~config () in
  ignore (expect_done "cold" (Daemon.submit d1 (request ())));
  Daemon.shutdown d1;
  (* the crash corrupted the persisted entry mid-write *)
  let file = Filename.concat dir (List.hd (entry_files dir)) in
  let bytes = read_file file in
  write_file file (String.sub bytes 0 (String.length bytes / 3));
  let d2 = Daemon.create ~config () in
  Fun.protect ~finally:(fun () -> Daemon.shutdown d2) @@ fun () ->
  Alcotest.(check int) "recovery scan quarantined the stub" 1
    (Daemon.cache_quarantined_on_open d2);
  let p = expect_done "re-solved" (Daemon.submit d2 (request ())) in
  Alcotest.(check bool) "fresh certified solve, not the corpse" false p.cached;
  Alcotest.(check int) "correct again" 4 p.f_cost;
  (* and the fresh result was re-persisted *)
  let p2 = expect_done "re-warmed" (Daemon.submit d2 (request ())) in
  Alcotest.(check bool) "warm again" true p2.cached

(* Every exact solve faults.  Seeded (the default), the answer is the
   DP routing at the optimum F = 4 (Ex. 7); without the seed the exact
   lane comes back empty and SABRE answers.  Either way the answer
   certifies against the device and claims no optimality. *)
let test_daemon_degrades_under_fault () =
  Fault.with_schedule Fault.Always_unknown (fun () ->
      List.iter
        (fun (warm_start, expected) ->
          let config =
            {
              fast_config with
              portfolio =
                {
                  Portfolio.default with
                  exact = { Qxm_exact.Mapper.default with warm_start };
                };
            }
          in
          let d = Daemon.create ~config () in
          Fun.protect ~finally:(fun () -> Daemon.shutdown d) @@ fun () ->
          let p = expect_done "degraded" (Daemon.submit d (request ())) in
          Alcotest.(check bool) "not claiming optimality" false p.optimal;
          Alcotest.(check string) "provenance" expected p.provenance;
          if warm_start then Alcotest.(check int) "the DP's F*" 4 p.f_cost;
          let mapped = Qasm.parse_string p.qasm in
          Alcotest.(check bool) "compliant" true
            (Certify.compliance ~arch:Devices.qx4 mapped = Ok ()))
        [ (true, "dp-incumbent"); (false, "heuristic:sabre") ])

let test_daemon_deadline_note_reaches_response () =
  (* After two good solves every exact solve is cut — the budgeted
     unlimited rung comes back unproven, which the portfolio flags as
     deadline_expired; the daemon must surface the note and stay far
     inside the 30 s budget instead of burning it. *)
  Fault.with_schedule (Fault.After_solves 2) (fun () ->
      let config =
        {
          fast_config with
          use_cache = false;
          portfolio = { Portfolio.default with ladder = [ -1 ] };
        }
      in
      let d = Daemon.create ~config () in
      Fun.protect ~finally:(fun () -> Daemon.shutdown d) @@ fun () ->
      let started = Unix.gettimeofday () in
      let p =
        expect_done "degraded"
          (Daemon.submit d (request ~budget:(Some 30.0) ()))
      in
      let elapsed = Unix.gettimeofday () -. started in
      Alcotest.(check bool) "notes carry deadline_expired" true
        (List.mem "deadline_expired" p.notes);
      Alcotest.(check bool) "not claiming optimality" false p.optimal;
      Alcotest.(check bool) "did not burn the budget" true (elapsed < 15.0);
      let mapped = Qasm.parse_string p.qasm in
      Alcotest.(check bool) "certified incumbent" true
        (Certify.compliance ~arch:Devices.qx4 mapped = Ok ()))

let test_daemon_unroutable_runs_once () =
  (* Under the default configuration an input nothing can route fails
     once, with the portfolio's own one-line Disconnected message, and
     before any portfolio stage runs: no deadline text may replace the
     real reason. *)
  Trace.reset ();
  Trace.enable ();
  Fun.protect ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
  @@ fun () ->
  let d = Daemon.create () in
  Fun.protect ~finally:(fun () -> Daemon.shutdown d) @@ fun () ->
  (match Daemon.submit d (unroutable_request ()) with
  | Daemon.Failed msg ->
      Alcotest.(check string) "portfolio's Disconnected text"
        "device has no connected set of 4 qubits (largest connected part: 2)"
        msg
  | _ -> Alcotest.fail "expected Failed on an unroutable input");
  let exact_lanes =
    List.filter
      (fun (e : Trace.event) -> e.ph = `B && e.name = "portfolio.exact_lane")
      (Trace.events ())
  in
  Alcotest.(check int) "no portfolio stage ran" 0 (List.length exact_lanes)

let test_daemon_sheds_past_watermark () =
  (* Deterministic overload: the only worker wedges inside a blocking
     completion callback (on a condvar, not the wall clock), and
     submit_async releases the admission slot only after the callback
     returns, so the watermark of 1 is occupied when the second request
     arrives. *)
  let m = Mutex.create () in
  let cv = Condition.create () in
  let entered = ref false in
  let released = ref false in
  let config = { fast_config with use_cache = false; watermark = 1 } in
  let d = Daemon.create ~config () in
  let async_response = Atomic.make None in
  Daemon.submit_async d (request ~id:"wedged" ()) (fun r ->
      Atomic.set async_response (Some r);
      Mutex.lock m;
      entered := true;
      Condition.broadcast cv;
      while not !released do
        Condition.wait cv m
      done;
      Mutex.unlock m);
  Mutex.lock m;
  while not !entered do
    Condition.wait cv m
  done;
  Mutex.unlock m;
  (* the slot is held: the next arrival must shed, with a hint *)
  (match Daemon.submit d (request ~id:"overflow" ()) with
  | Daemon.Shed { depth; retry_after } ->
      Alcotest.(check int) "depth reported" 1 depth;
      Alcotest.(check bool) "retry-after hint" true (retry_after > 0.0)
  | _ -> Alcotest.fail "expected Shed past the watermark");
  Mutex.lock m;
  released := true;
  Condition.broadcast cv;
  Mutex.unlock m;
  Daemon.drain d;
  (match Atomic.get async_response with
  | Some (Daemon.Done p) ->
      Alcotest.(check int) "wedged request solved" 4 p.f_cost
  | Some _ -> Alcotest.fail "wedged request should have been solved"
  | None -> Alcotest.fail "async callback never fired");
  Daemon.shutdown d

let test_daemon_response_json_shapes () =
  let p =
    {
      Daemon.qasm = "OPENQASM 2.0;\n";
      f_cost = 4;
      total_gates = 10;
      provenance = "exact-optimal";
      optimal = true;
      verified = Some true;
      notes = [ "deadline_expired" ];
      runtime = 0.25;
      cached = true;
    }
  in
  let j = Daemon.response_json ~id:"r1" (Daemon.Done p) in
  let get k = Option.bind (Sjson.member k j) in
  Alcotest.(check (option string)) "id" (Some "r1") (get "id" Sjson.to_string_opt);
  Alcotest.(check (option string)) "status" (Some "ok")
    (get "status" Sjson.to_string_opt);
  Alcotest.(check (option bool)) "cached" (Some true)
    (get "cached" Sjson.to_bool_opt);
  Alcotest.(check bool) "no attempts field" true
    (Sjson.member "attempts" j = None);
  (match Sjson.member "notes" j with
  | Some (Sjson.List [ Sjson.Str "deadline_expired" ]) -> ()
  | _ -> Alcotest.fail "notes list missing");
  (* wire shape survives print/parse *)
  (match Sjson.parse (Sjson.print j) with
  | Ok j' -> Alcotest.(check bool) "round trips" true (j = j')
  | Error e -> Alcotest.failf "reparse: %s" e);
  let shed =
    Daemon.response_json ~id:"r2" (Daemon.Shed { depth = 9; retry_after = 0.3 })
  in
  Alcotest.(check (option string)) "shed status" (Some "shed")
    (Option.bind (Sjson.member "status" shed) Sjson.to_string_opt);
  let rej = Daemon.response_json ~id:"r3" (Daemon.Rejected "bad") in
  Alcotest.(check (option string)) "invalid status" (Some "invalid")
    (Option.bind (Sjson.member "status" rej) Sjson.to_string_opt)

let test_daemon_payload_roundtrip () =
  let j =
    Result.get_ok
      (Sjson.parse
         {|{"qasm":"OPENQASM 2.0;","f_cost":7,"total_gates":14,
            "provenance":"exact-incumbent","optimal":false,
            "verified":true,"notes":["deadline_expired"],"runtime_s":1.5}|})
  in
  match Daemon.payload_of_json j with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok p ->
      Alcotest.(check int) "f_cost" 7 p.f_cost;
      Alcotest.(check string) "provenance" "exact-incumbent" p.provenance;
      Alcotest.(check (option bool)) "verified" (Some true) p.verified;
      Alcotest.(check (list string)) "notes" [ "deadline_expired" ] p.notes;
      (match Daemon.payload_of_json (Sjson.Obj [ ("qasm", Sjson.Str "x") ]) with
      | Ok _ -> Alcotest.fail "truncated payload should not decode"
      | Error _ -> ())

let test_daemon_cache_key_sensitivity () =
  let base = request () in
  let key = Daemon.cache_key base in
  Alcotest.(check int) "digest-shaped" 32 (String.length key);
  Alcotest.(check string) "stable" key (Daemon.cache_key base);
  Alcotest.(check bool) "device changes the key" true
    (key
    <> Daemon.cache_key
         { base with device = Devices.qx2; device_name = "qx2" });
  Alcotest.(check bool) "strategy changes the key" true
    (key <> Daemon.cache_key { base with strategy = Strategy.Qubit_triangle });
  Alcotest.(check bool) "budget changes the key" true
    (key <> Daemon.cache_key { base with budget = Some 1.0 });
  Alcotest.(check bool) "circuit changes the key" true
    (key <> Daemon.cache_key { base with circuit = Examples.fig1b })

let test_metrics_text_renders () =
  (* the registry is process-global, and the daemon tests above have
     already exercised it: the snapshot must render as "name value"
     lines including the service counters *)
  let text = Daemon.metrics_text () in
  Alcotest.(check bool) "mentions the service gauges" true
    (contains_substring text "svc.queue_depth");
  List.iter
    (fun line ->
      if line <> "" then
        Alcotest.(check bool)
          (Printf.sprintf "line %S is name value" line)
          true
          (String.contains line ' '))
    (String.split_on_char '\n' text)

(* -- portfolio deadline regression (satellite of this PR) ---------------- *)

let test_portfolio_deadline_expired_note () =
  (* Regression for the canonical-resolve deadline leak: a budgeted run
     whose unlimited rung comes back unproven must (a) carry the
     deadline_expired note and (b) not start fresh solves past the
     deadline.  After_solves 2 deterministically stands in for "the
     clock ran out mid-rung". *)
  Fault.with_schedule (Fault.After_solves 2) (fun () ->
      let options =
        { Portfolio.default with budget = Some 30.0; ladder = [ -1 ] }
      in
      let started = Unix.gettimeofday () in
      match Portfolio.run ~options ~arch:Devices.qx4 Examples.fig1a with
      | Error e -> Alcotest.failf "portfolio failed: %a" Portfolio.pp_failure e
      | Ok r ->
          let elapsed = Unix.gettimeofday () -. started in
          Alcotest.(check bool) "deadline note present" true
            (List.mem "deadline_expired" r.notes);
          Alcotest.(check bool) "no optimality claim" false r.optimal;
          Alcotest.(check bool) "returned promptly" true (elapsed < 15.0);
          Alcotest.(check bool) "certified" true
            (Certify.compliance ~arch:Devices.qx4 r.elementary = Ok ()))

(* A budgeted unlimited rung that ends with no answer at all (here:
   unseeded, every solve after the first faulted) was cut by the clock's
   stand-in, exactly like one that ends unproven, so it too leaves the
   deadline_expired note.  The 4000 rung before it found the incumbent. *)
let test_portfolio_timed_out_rung_notes_deadline () =
  Fault.with_schedule (Fault.After_solves 1) (fun () ->
      let options =
        {
          Portfolio.default with
          exact = { Qxm_exact.Mapper.default with warm_start = false };
          budget = Some 30.0;
          ladder = [ 4000; -1 ];
        }
      in
      match Portfolio.run ~options ~arch:Devices.qx4 Examples.fig1a with
      | Error e -> Alcotest.failf "portfolio failed: %a" Portfolio.pp_failure e
      | Ok r ->
          Alcotest.(check (list string))
            "exact stages"
            [ "exact:4000"; "exact:unlimited" ]
            (List.filter_map
               (fun (s : Portfolio.stage) ->
                 if String.starts_with ~prefix:"exact:" s.stage then
                   Some s.stage
                 else None)
               r.stages);
          Alcotest.(check string) "the unlimited rung found nothing"
            "budget exhausted" (List.nth r.stages 1).outcome;
          Alcotest.(check (list string)) "deadline note" [ "deadline_expired" ]
            r.notes;
          Alcotest.(check bool) "no optimality claim" false r.optimal)

let test_portfolio_clean_run_has_no_notes () =
  match Portfolio.run ~arch:Devices.qx4 Examples.fig1a with
  | Ok r -> Alcotest.(check (list string)) "no qualifiers" [] r.notes
  | Error e -> Alcotest.failf "portfolio failed: %a" Portfolio.pp_failure e

let suite =
  [
    ("validate: accepts sane values", `Quick, test_validate_accepts);
    ("validate: rejects zero/negative/NaN", `Quick, test_validate_rejects);
    ("sjson: print/parse round trip", `Quick, test_sjson_roundtrip);
    ("sjson: unicode escapes", `Quick, test_sjson_unicode);
    ("sjson: malformed input rejected", `Quick, test_sjson_rejects);
    ("sjson: accessors", `Quick, test_sjson_accessors);
    ("chash: digest shape and stability", `Quick, test_chash);
    ("admission: watermark and release", `Quick, test_admission_watermark);
    ("admission: burst shed", `Quick, test_admission_burst_shed);
    ("admission: invalid watermark", `Quick, test_admission_invalid_watermark);
    ("cache: LRU eviction", `Quick, test_cache_lru_eviction);
    ("cache: disk round trip across restart", `Quick,
     test_cache_disk_roundtrip);
    ("cache: truncated entry quarantined", `Quick,
     test_cache_truncated_entry_quarantined);
    ("cache: bit flip caught at read", `Quick,
     test_cache_bitflip_caught_at_read);
    ("cache: stray tmp file quarantined", `Quick,
     test_cache_stray_tmp_quarantined);
    ("cache: invalidate quarantines", `Quick, test_cache_invalidate_quarantines);
    ("daemon: request parsing defaults", `Quick, test_parse_request_defaults);
    ("daemon: request parsing explicit", `Quick, test_parse_request_explicit);
    ("daemon: request parsing rejects", `Quick, test_parse_request_rejects);
    ("daemon: solve, cache, warm hit", `Quick, test_daemon_solves_and_caches);
    ("daemon: cache survives restart", `Quick,
     test_daemon_cache_survives_restart);
    ("daemon: corrupt cache falls through to fresh solve", `Quick,
     test_daemon_corrupt_cache_falls_through);
    ("daemon: degrades under fault", `Quick, test_daemon_degrades_under_fault);
    ("daemon: deadline note reaches response", `Quick,
     test_daemon_deadline_note_reaches_response);
    ("daemon: unroutable request runs once", `Quick,
     test_daemon_unroutable_runs_once);
    ("daemon: sheds past watermark", `Quick, test_daemon_sheds_past_watermark);
    ("daemon: response JSON shapes", `Quick, test_daemon_response_json_shapes);
    ("daemon: payload round trip", `Quick, test_daemon_payload_roundtrip);
    ("daemon: cache key sensitivity", `Quick,
     test_daemon_cache_key_sensitivity);
    ("metrics text renders", `Quick, test_metrics_text_renders);
    ("portfolio: deadline_expired note (regression)", `Quick,
     test_portfolio_deadline_expired_note);
    ("portfolio: timed-out rung notes the deadline", `Quick,
     test_portfolio_timed_out_rung_notes_deadline);
    ("portfolio: clean run has no notes", `Quick,
     test_portfolio_clean_run_has_no_notes);
  ]
