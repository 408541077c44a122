(** Low-overhead span tracer.

    The tracer records [B]egin/[E]nd span events, [i]nstant events and
    [C]ounter samples into per-worker (domain-indexed) buffers with
    timestamps from a monotonically rebased clock, and exports them
    either as a Chrome trace-event JSON file (loadable in
    [chrome://tracing] or Perfetto) or as an NDJSON event log.

    Design constraints, in order:

    - {b Disabled means free.}  When tracing is off — the default —
      {!with_span} and {!instant} cost a single atomic load and branch.
      Instrumentation can therefore live on warm paths (one span per SAT
      solve, per mapper candidate, per pool task) without showing up in
      benchmarks.
    - {b No cross-worker contention.}  Each domain appends to its own
      buffer, discovered through domain-local storage; the only lock is
      taken once per domain (buffer registration) and at export time.
      Parallel determinism is unaffected: buffers are merged at export,
      grouped by worker.
    - {b Exception-safe spans.}  {!with_span} closes its span even when
      the wrapped function raises, so traces of failing runs stay
      well-formed. *)

(** Argument values attached to events, rendered into the JSON [args]
    object. *)
type arg = Int of int | Str of string | Float of float | Bool of bool

val enabled : unit -> bool
(** Is the tracer currently recording into its in-memory buffers?
    (The flight-recorder sink installed via {!set_sink} is gated
    independently.) *)

val enable : unit -> unit
(** Start recording.  Also rebases the clock: timestamps are microseconds
    since the most recent [enable]/[reset]. *)

val disable : unit -> unit
(** Stop recording.  Buffered events are kept and can still be
    exported. *)

val reset : unit -> unit
(** Drop all buffered events and rebase the clock.  Buffers cached by
    live domains are invalidated by generation, so a domain that appends
    after a reset re-registers transparently. *)

val now_us : unit -> float
(** Microseconds since the current clock origin — the timebase every
    exported [ts_us] uses.  Exposed so companion recorders (the
    {!Timeseries} sampler) can stamp their data on the same axis. *)

val with_span : ?args:(string * arg) list -> name:string -> (unit -> 'a) -> 'a
(** [with_span ~name f] runs [f ()] inside a span: a [B] event before, an
    [E] event after (also on exception).  When the tracer is disabled this
    is exactly [f ()] behind one branch.  The span must begin and end on
    the same domain — true by construction for a synchronous [f]. *)

val instant : ?args:(string * arg) list -> string -> unit
(** Record a point event (Chrome phase [i]), e.g. a solver restart. *)

(** One recorded event, as exported.  [ts_us] is microseconds since the
    clock rebase; [tid] is the numeric id of the recording domain.
    Phase [`C] is a counter sample (periodic telemetry, see
    {!Timeseries}). *)
type event = {
  ph : [ `B | `E | `I | `C ];
  name : string;
  ts_us : float;
  tid : int;
  args : (string * arg) list;
}

val set_sink : (event -> unit) option -> unit
(** Install (or remove) a per-event sink that observes every recorded
    event in addition to — or, when the tracer itself is disabled,
    instead of — the in-memory buffers.  The flight recorder uses this
    to keep a bounded ring of recent events alive across long daemon
    runs without unbounded buffer growth.  The sink runs inline on the
    recording domain and must be fast and exception-free. *)

val events : ?extra:event list -> unit -> event list
(** All buffered events, merged: grouped by worker (ascending [tid]),
    each worker's events in recording order.  Within one worker the
    [B]/[E] events nest properly; the export never interleaves two
    workers' events inside a group.  [extra] — counter samples from a
    companion recorder, grouped by tid with monotone timestamps — is
    merged into the matching worker groups by timestamp. *)

val json_escape : string -> string
(** JSON string-body escaping, shared with companion emitters (the
    flight-recorder header line). *)

val event_json : event -> string
(** One event as a single-line Chrome trace-event JSON object — the
    layout [Qxm_profile.Profile] parses (behind [bin/qxm_prof.exe]). *)

val to_chrome_string : ?extra:event list -> unit -> string
(** The buffered events as a Chrome trace-event JSON document
    ([{"traceEvents": [...]}]), one event object per line — the layout
    [qxm_prof --check] validates. *)

val write_chrome : ?extra:event list -> string -> unit
(** Write {!to_chrome_string} to a file. *)

val write_ndjson : ?extra:event list -> string -> unit
(** Write the events as NDJSON: one JSON object per line, no wrapper —
    for [jq]-style streaming consumption. *)
