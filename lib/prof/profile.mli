(** Offline analysis behind [qxm_prof]: parse a recorded observability
    artifact and explain where the time went.

    Three input shapes are auto-detected:

    - a Chrome trace object ([{"traceEvents": [...]}]) or the same
      events as NDJSON, as written by [qxmap --trace/--events];
    - a flight-recorder dump (NDJSON with a [{"flight": 1, ...}] header
      line), as written by [qxmapd --flight-record] or a timed-out
      [qxmap --flight-record] run;
    - bench JSON lines ([bench/main.ml --json]), used by the diff mode.

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
  b_key : string;  (** benchmark/device/strategy — the diff join key *)
  b_name : string;
  b_wall : float;
  b_timed_out : bool;
  b_stages : (string * float) list;  (** stage name -> seconds *)
  b_counters : (string * float) list;
}

type input =
  | Flight of { f_reason : string; f_dropped : int; f_events : event list }
  | Trace_events of event list
  | Bench_rows of bench_row list

val parse_string : string -> (input, string) result
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
    @raise Invalid_argument on bench input — use {!diff}. *)

val render_text : ?top:int -> report -> string
val render_json : ?top:int -> report -> string

(** {1 Bench diff} *)

type diff_entry = {
  de_name : string;
  de_wall_base : float;
  de_wall_new : float;
  de_stage : (string * float * float) option;
      (** stage with the largest absolute growth: name, base_s, new_s *)
  de_counter : (string * float * float) option;
      (** counter with the largest relative growth: name, base, new *)
  de_timed_out_change : bool;
}

type diff_report = {
  dr_entries : diff_entry list;  (** sorted by wall growth, descending *)
  dr_missing : string list;
}

val diff : input -> input -> (diff_report, string) result
(** [diff base fresh] — both inputs must be [Bench_rows]; attributes
    each wall-time regression to the stage and solver counter that
    grew the most. *)

val render_diff_text : diff_report -> string
val render_diff_json : diff_report -> string
