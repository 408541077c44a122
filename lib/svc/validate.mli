(** Validation of user-supplied numeric parameters.

    Every numeric knob that reaches the mapping engines — wall-clock
    budgets, worker counts, queue capacities — must be rejected at the
    boundary when it is zero, negative, NaN or infinite, with a one-line
    actionable message naming the flag.  Both the [qxmap] CLI options
    and the [qxmapd] request parser funnel through these checks, so a
    bad value can never reach the solvers as an "undefined behaviour"
    deadline (a NaN deadline, for instance, makes every comparison
    false and disables the budget entirely).

    Error strings are complete sentences of the form
    ["--timeout must be a positive finite number of seconds, got '0'"]
    — suitable for printing verbatim on stderr or returning in a daemon
    error response. *)

val pos_float : flag:string -> ?unit:string -> float -> (float, string) result
(** Accept strictly positive finite floats.  [unit] names the unit in
    the error message (e.g. ["seconds"]). *)

val pos_int : flag:string -> ?unit:string -> int -> (int, string) result
(** Accept strictly positive integers. *)

val parse_pos_float : flag:string -> ?unit:string -> string -> (float, string) result
(** Parse then validate like {!pos_float}; a string that is not a number
    at all gets the same shape of message. *)

val parse_pos_int : flag:string -> ?unit:string -> string -> (int, string) result
