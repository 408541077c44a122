(** Crash-safe flight recorder.

    A fixed-size in-memory ring of the most recent trace events (spans,
    instants and the solver's counter samples, captured through
    {!Trace.set_sink}) that can be dumped to disk at the moment
    something goes wrong — a watchdog force-cancel, a failed request, a
    fatal signal, a CLI timeout — without requiring the unbounded tracer
    to have been on for the whole run.  Samples share the ring with the
    spans, so a dump's search trajectory covers the ring's window, not
    the whole run.

    Dump format: NDJSON.  The first line is a header object
    [{"flight": 1, "reason": "...", "dumped_ts_us": ..., "dropped": N,
    "events": M}]; every following line is one Chrome trace-event object
    ({!Trace.event_json}), sorted by timestamp.  [dropped] counts ring
    evictions — events that happened but fell out of the window.
    [bin/qxm_prof.exe] ingests the format directly.

    Dumps are crash-safe in the cache tier's sense: written to a
    [.tmp] sibling, fsynced, then renamed over the destination, so a
    crash mid-dump never leaves a truncated file under the final name.
    Successive dumps overwrite (last incident wins).

    When disabled — the default — {!record} and {!dump} are a single
    atomic load and branch. *)

val enabled : unit -> bool

val enable : ?capacity:int -> path:string -> unit -> unit
(** Start recording into a ring of [capacity] events (default 65536) and
    arm dumps to [path].  Installs itself as the {!Trace} sink, so span
    and instant events flow in even when the unbounded tracer is off. *)

val disable : unit -> unit
(** Stop recording and uninstall the trace sink.  The ring is kept until
    the next {!enable}. *)

val record : Trace.event -> unit
(** Append one event to the ring (evicting the oldest when full).
    Installed as the trace sink by {!enable}; may also be called
    directly. *)

val dump : reason:string -> unit -> string option
(** Write the ring to the armed path and return it, or [None] when the recorder is disabled.  Never
    raises: I/O failures are swallowed (counted under the
    [obs.flight_dump_errors] metric) — the recorder must not take down
    the process it is documenting. *)
