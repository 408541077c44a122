(** Offline analysis behind [qxm_prof], and the repository's only reader
    of its observability artifacts: parse a recorded trace or flight
    dump once, then explain where the time went or check the trace's
    well-formedness.

    Two input shapes are auto-detected:

    - a Chrome trace object ([{"traceEvents": [...]}]) or the same
      events as NDJSON, as written by [qxmap --trace/--events];
    - a flight-recorder dump (NDJSON with a [{"flight": 1, ...}] header
      line), as written by [qxmapd --flight-record] or a timed-out
      [qxmap --flight-record] run.

    Attribution combines exact span durations (B/E pairs that completed
    inside the window) with counter-sample gap attribution: each
    interval between consecutive ["solver.sample"] events on a worker
    is charged to the spans open around the closing sample — the
    [stage] of its [portfolio.stage], the [index] of its
    [mapper.candidate] and the [bound] of its [minimize.step] — so a
    dump whose enclosing spans never closed (the normal shape for a
    timeout) still yields a full breakdown, as long as the ring still
    holds their begins.  See doc/OBSERVABILITY.md. *)

(** {1 Inputs} *)

type event = {
  e_name : string;
  e_ph : string;
  e_ts : float;  (** microseconds since trace origin *)
  e_tid : int;
  e_args : Qxm_json.Sjson.t;
}

type input =
  | Flight of { f_reason : string; f_dropped : int; f_events : event list }
  | Trace_events of event list

val parse_string : string -> (input, string) result
(** Trace events must carry a string [name] and [ph], a numeric [ts]
    and an integer [tid], and [ph] must be one of B, E, i, I, C; the
    first event that does not rejects the whole input with its position
    (["event N"] in a Chrome trace, ["line N"] in NDJSON), as does an
    NDJSON line that is not JSON.  Any other document or line stream
    is rejected as unrecognised. *)

val parse_file : string -> (input, string) result

(** {1 Reports} *)

type span_stat = {
  s_name : string;
  s_count : int;  (** completed instances *)
  s_open : int;  (** begun but not ended inside the window *)
  s_total_us : float;
  s_min_us : float;  (** shortest completed instance *)
  s_max_us : float;  (** longest completed instance *)
  s_buckets : int array;  (** log2 buckets of completed durations, us *)
}

val span_quantile : span_stat -> float -> float option
(** Interpolated duration quantile in {e seconds}, from the log2
    buckets (same interpolation as {!Qxm_obs.Metrics.quantile}),
    clamped to the observed [s_min_us, s_max_us]. *)

type dim = { d_name : string; d_slices : (string * float) list }
(** One attribution dimension (phase, stage, cand, rung); slices
    are [(value, microseconds)] sorted by descending time. *)

(** The objective bounds the descent attempted, read from the
    [bound] args of its [minimize.step] begins. *)
type trajectory = {
  t_first_bound : int;
  t_best_bound : int;
  t_improvements : int;
  t_last_improvement_us : float;
  t_tail_us : float;  (** window time after the last improvement *)
  t_tail_rung : int;  (** the bound of the last step begun *)
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
(** Analyze a trace or flight input. *)

val render_text : ?top:int -> report -> string
val render_json : ?top:int -> report -> string

(** {1 Run summary}

    The fold behind the per-run fields of [qxmap map --json]: one pass
    over the trace events a single mapping call recorded. *)

val mapper_phases : string list
(** The mapper's pipeline stages, in order: [encode], [warm_start],
    [solve], [reconstruct], [verify] — each traced as a [mapper.<phase>]
    span. *)

type run = {
  u_phases : (string * float) list;
      (** seconds per {!mapper_phases} entry (all five, in that order,
          zero when unused), from the phase dimension {!analyze}
          attributes; with parallel candidates the sums can exceed the
          wall time *)
  u_trajectory : (float * int) list;
      (** [(seconds since t0, cost)] for each [minimize.incumbent]
          instant that beat every earlier one: time-ordered, costs
          strictly decreasing *)
}

val fold_run : t0_us:float -> Qxm_obs.Trace.event list -> run
(** [fold_run ~t0_us events] summarises one call whose events are
    [events]; [t0_us] is the call's start on the {!Qxm_obs.Trace.now_us}
    timebase. *)

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
    An input without events fails.

    - [min_workers]: at least this many distinct tids.
    - [require]: each prefix names at least one event.
    - [samples]: at least one [solver.sample] counter event, each with
      a [conflicts] arg.
    - [request_ids]: every [svc.solve] B event carries a [request] arg,
      and every [request] arg of an [svc.*] event resolves to the [id]
      of an [svc.request] B event.  Needs a complete trace: a flight
      ring may have evicted the registering span. *)
