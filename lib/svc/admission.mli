(** Admission control: a bounded in-flight counter with load shedding.

    The daemon's queue over [Qxm_par.Pool] is unbounded by construction
    (submit never blocks), so the bound lives here: every request that
    enters the service first passes {!try_admit}, which counts it
    against a watermark.  Past the watermark the request is {e shed} —
    rejected immediately with a suggested retry-after — instead of
    growing an unbounded backlog whose tail would blow every deadline
    anyway (each queued request still pays its full solve once it
    reaches a worker).  Shedding early keeps the latency of accepted
    requests bounded, which is what a deadline-driven client actually
    wants from an overloaded server.

    Thread-safe: admit/release are mutex-protected; the depth is also
    published to the [svc.queue_depth] gauge and sheds are counted on
    [svc.sheds]. *)

type t

type verdict =
  | Admitted
  | Shed of { depth : int; retry_after : float }
      (** Rejected: current depth and the seconds the client should wait
          before retrying (always 0.1 s). *)

val create : watermark:int -> t
(** [watermark] is the maximum number of in-flight (queued + running)
    requests; it must be positive.
    @raise Invalid_argument on a non-positive watermark. *)

val try_admit : t -> verdict
(** Reserve a slot or shed.  An [Admitted] verdict must be paired with
    exactly one {!release}. *)

val release : t -> unit
(** Return a slot.  Calling it without a matching admit is a bug; the
    depth is clamped at zero and the imbalance counted on
    [svc.admission_imbalance]. *)

val depth : t -> int
(** Current in-flight count. *)

val sheds : t -> int
(** Requests shed since creation (this instance, not the global
    counter). *)
