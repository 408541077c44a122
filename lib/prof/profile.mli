(** Offline analysis behind [qxm_prof], and the repository's only reader
    of its observability artifacts: parse a recorded trace, flight dump
    or bench emission once, then explain where the time went, check a
    trace's well-formedness, or gate a bench run against its baseline.

    Three input shapes are auto-detected:

    - a Chrome trace object ([{"traceEvents": [...]}]) or the same
      events as NDJSON, as written by [qxmap --trace/--events];
    - a flight-recorder dump (NDJSON with a [{"flight": 1, ...}] header
      line), as written by [qxmapd --flight-record] or a timed-out
      [qxmap --flight-record] run;
    - bench JSON ([bench/main.ml --json]), read by the gate.

    Attribution combines exact span durations (B/E pairs that completed
    inside the window) with counter-sample gap attribution: each
    interval between consecutive ["solver.sample"] events on a worker
    is charged to the labels the closing sample carries ([stage=],
    [cand=], [rung=]), so a dump whose enclosing spans never
    closed — the normal shape for a timeout — still yields a full
    breakdown.  See doc/OBSERVABILITY.md. *)

(** {1 Inputs} *)

type event = {
  e_name : string;
  e_ph : string;
  e_ts : float;  (** microseconds since trace origin *)
  e_tid : int;
  e_args : Qxm_json.Sjson.t;
}

type bench_row = {
  b_key : string;
      (** ["[suite/]benchmark -jN"] (suite omitted when ["quick"], the
          default for records without one): the gate's join key and
          row tag *)
  b_wall : float;
  b_optimal : bool;
  b_failed : bool;
  b_timed_out : bool option;  (** [None]: a record without the field *)
  b_stages : (string * float) list;  (** stage name -> seconds *)
  b_counters : (string * float) list;  (** every other numeric field *)
}

type input =
  | Flight of { f_reason : string; f_dropped : int; f_events : event list }
  | Trace_events of event list
  | Bench_rows of bench_row list

val parse_string : string -> (input, string) result
(** Trace events must carry a string [name] and [ph], a numeric [ts]
    and an integer [tid], and [ph] must be one of B, E, i, I, C; the
    first event that does not rejects the whole input with its position
    (["event N"] in a Chrome trace, ["line N"] in NDJSON), as does an
    NDJSON line that is not JSON.  Bench records without a [benchmark],
    integer [jobs] or [wall_s] are skipped. *)

val parse_file : string -> (input, string) result

(** {1 Reports} *)

type span_stat = {
  s_name : string;
  s_count : int;  (** completed instances *)
  s_open : int;  (** begun but not ended inside the window *)
  s_total_us : float;
  s_buckets : int array;  (** log2 buckets of completed durations, us *)
}

val span_quantile : span_stat -> float -> float option
(** Interpolated duration quantile in {e seconds}, from the log2
    buckets (same interpolation as {!Qxm_obs.Metrics.quantile}). *)

type dim = { d_name : string; d_slices : (string * float) list }
(** One attribution dimension (phase, stage, cand, rung); slices
    are [(value, microseconds)] sorted by descending time. *)

type trajectory = {
  t_first_bound : int;
  t_best_bound : int;
  t_improvements : int;
  t_last_improvement_us : float;
  t_tail_us : float;
  t_tail_rung : int option;
}

type report = {
  r_source : string;
  r_reason : string option;
  r_dropped : int;
  r_num_events : int;
  r_wall_us : float;  (** recorded window: last ts - first ts *)
  r_busy_us : float;  (** sum over workers of per-worker window *)
  r_tids : int;
  r_spans : span_stat list;  (** sorted by total time, descending *)
  r_dims : dim list;
  r_coverage : float;  (** phase-attributed time / busy time *)
  r_trajectory : trajectory option;
}

val analyze : input -> report
(** Analyze a trace or flight input.
    @raise Invalid_argument on bench input — use {!gate}. *)

val render_text : ?top:int -> report -> string
val render_json : ?top:int -> report -> string

(** {1 Trace check} *)

type check = {
  c_events : int;
  c_workers : int;  (** distinct tids *)
  c_errors : string list;  (** empty iff the trace passes *)
}

val check :
  ?min_workers:int ->
  ?require:string list ->
  ?samples:bool ->
  ?request_ids:bool ->
  input ->
  check
(** Well-formedness of a parsed trace or flight dump.  Per tid, every E
    closes the innermost open B of the same name, timestamps never go
    backwards (C events included), and no span is left open at the end.
    An input without events (or a bench input) fails.

    - [min_workers]: at least this many distinct tids.
    - [require]: each prefix names at least one event.
    - [samples]: at least one [solver.sample] counter event, each with
      a [conflicts] arg.
    - [request_ids]: every [svc.solve] B event carries a [request] arg,
      and every [request] arg of an [svc.*] event resolves to the [id]
      of an [svc.request] B event.  Needs a complete trace: a flight
      ring may have evicted the registering span. *)

(** {1 Bench gate} *)

type gate = {
  g_lines : string list;
      (** one verdict line per baseline row — [REGRESSED], [ok],
          [unstable] or [improved], then the tag — plus indented
          attribution lines *)
  g_regressions : int;
}

val gate : input -> input -> (gate, string) result
(** [gate base fresh] joins bench rows on {!bench_row.b_key}.  A row the
    baseline proved optimal regresses when it goes missing, fails, newly
    times out or loses [optimal], or when its wall time exceeds
    base × 1.25 + 0.25 s (the stage and solver counter that grew most are
    then named).  On rows with at least 100k propagations in both runs,
    [props_per_sec] must stay at least base / 1.5, and minor words per
    propagation at most base × 1.5 + 0.5 (8 when the baseline lacks the
    counters).  Non-optimal baseline rows are informational: [improved]
    when they newly finish, [unstable] otherwise.
    [Error] unless both inputs are bench JSON and the baseline has rows. *)
