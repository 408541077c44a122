(** The mapping service core: long-lived request execution over the
    thread-safe substrate, with deadlines, admission control and the
    recoverable result cache.

    This is the library behind the [qxmapd] binary (which adds only the
    line-JSON wire loop).  One daemon owns:

    - a worker pool ({!Qxm_par.Pool}) that requests fan out on; each
      request runs the resilient {!Qxm_exact.Portfolio} sequentially on
      its worker, so throughput comes from request-level parallelism
      and a single request can never starve the fleet;
    - {!Admission} control: past the configured watermark, requests are
      shed immediately with a retry-after hint instead of queueing into
      certain deadline misses;
    - per-request deadlines: the request budget becomes the portfolio's
      wall-clock budget {e and} a supervisor {!Qxm_par.Cancel} token
      registered with a watchdog domain (scanning every 50 ms) that
      force-cancels any request still running 0.5 s past its deadline —
      an expired request returns the portfolio's best certified
      incumbent (with a [deadline_expired] note), never an uncertified
      answer and never a hang;
    - one {!Qxm_exact.Portfolio.run} per admitted request: the
      portfolio already falls back to SABRE when the exact lane comes
      back empty, so its only errors are properties of the input, and
      they are returned as [Failed] with the portfolio's own message;
    - the two-tier {!Cache}; every hit is re-parsed and re-verified
      through [Certify.compliance] against the {e requested}
      architecture before it is served, and a hit that fails
      verification is quarantined and falls through to a fresh solve.

    All entry points are thread-safe.  See [doc/SERVICE.md] for the
    wire protocol, cache format and the operational runbook. *)

module Sjson = Qxm_json.Sjson
(** Re-exported so existing [Qxm_svc.Daemon.Sjson] users keep
    compiling; the module itself now lives in [Qxm_json]. *)

type config = {
  jobs : int;  (** worker domains executing requests (>= 1) *)
  watermark : int;  (** max in-flight requests before shedding *)
  default_budget : float option;
      (** budget applied when a request carries none; [None] = requests
          without a budget run unbounded *)
  cache_dir : string option;  (** disk tier location; [None] = memory only *)
  cache_mem : int;  (** in-memory tier capacity (entries) *)
  use_cache : bool;  (** master switch for the result cache *)
  certificates : bool;
      (** emit a QXMCERT1 optimality certificate next to the cache
          entry ([<key>.cert.json] under [cache_dir]) for every freshly
          solved proven-optimal answer; requires a disk cache tier.
          Off by default: proof logging costs memory and certificates
          only exist for [Exact_optimal] answers. *)
  portfolio : Qxm_exact.Portfolio.options;
      (** base portfolio options; [budget], [jobs] and the strategy are
          overridden per request *)
}

val default_config : config
(** 2 workers, watermark 32, no default budget, memory-only cache of
    128 entries, no certificates, {!Qxm_exact.Portfolio.default}. *)

type request = {
  req_id : string;
  circuit : Qxm_circuit.Circuit.t;
  device : Qxm_arch.Coupling.t;
  device_name : string;
  strategy : Qxm_exact.Strategy.t;
  budget : float option;  (** wall-clock deadline for this request *)
  use_cache : bool;
}

type payload = {
  qasm : string;  (** elementary mapped circuit, OpenQASM *)
  f_cost : int;
  total_gates : int;
  provenance : string;  (** {!Qxm_exact.Portfolio.provenance_string} *)
  optimal : bool;
  verified : bool option;
  notes : string list;
  runtime : float;
  cached : bool;  (** served from the cache (after re-verification) *)
}

type response =
  | Done of payload
  | Shed of { depth : int; retry_after : float }
      (** admission control rejected the request; retry later *)
  | Rejected of string  (** the request itself is invalid; do not retry *)
  | Failed of string
      (** the portfolio returned no mapping (the message is its
          {!Qxm_exact.Portfolio.pp_failure} text), or raised *)

type t

val create : ?config:config -> unit -> t
(** Build the pool, watchdog and cache; runs the cache recovery scan. *)

val cache_quarantined_on_open : t -> int

val submit : t -> request -> response
(** Execute synchronously on the calling thread (admission control still
    applies).  Never raises: internal errors become [Failed]. *)

val submit_async : t -> request -> (response -> unit) -> unit
(** Enqueue on the pool; the callback fires on a worker domain (sheds
    fire synchronously on the caller).  The callback must be
    thread-safe. *)

val drain : t -> unit
(** Block until every in-flight request has completed. *)

val shutdown : t -> unit
(** Stop admitting, drain, stop the watchdog, shut the pool down.
    Idempotent. *)

(** {1 Wire protocol helpers} *)

val parse_request :
  ?default_device:Qxm_arch.Coupling.t * string ->
  ?default_budget:float option ->
  ?gen_id:(unit -> string) ->
  Sjson.t ->
  (request, string) result
(** Decode a ["map"] request object ([qasm] required; [id], [device],
    [strategy], [budget], [cache] optional).  Numeric fields go through
    {!Validate} — a zero, negative or NaN [budget] is rejected with the
    same one-line message the CLI prints.  Circuits with SWAP gates and
    unknown devices/strategies are rejected here, before any solver
    runs. *)

val response_json : id:string -> response -> Sjson.t
(** The wire encoding of a response ([status] of [ok], [shed],
    [invalid] or [error]). *)

val payload_of_json : Sjson.t -> (payload, string) result
(** Decode a stored cache payload (used internally and by tests). *)

val cache_key : request -> string
(** The content digest this request caches under: circuit QASM, device
    edge list, strategy, budget and cost model. *)

val certificate_path : t -> key:string -> string option
(** Where the certificate for a {!cache_key} lives ([None] without a
    disk cache tier).  The file exists once a proven-optimal answer for
    that key has been solved with [config.certificates] on. *)

val audit_certificate :
  t -> key:string -> (Qxm_audit.Auditor.report, string) result
(** Load the stored certificate for a {!cache_key} and re-validate it
    with the independent offline auditor ({!Qxm_audit.Auditor.run}).
    [Error] when certificates are not stored (no disk cache) or none
    exists for the key. *)

val metrics_text : unit -> string
(** The [/metrics]-style snapshot of the whole registry: one
    [name value] line per counter/gauge, [name [b0 b1 ...]] per
    histogram, sorted by name. *)
