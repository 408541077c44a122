(** Minimal JSON values for the daemon wire protocol.

    The repository emits JSON in several places ([qxmap --json],
    [table1 --json]); the daemon also has to {e read} it, because
    [qxmapd] requests arrive as one JSON object per line.  This module
    is a small, dependency-free value type with a strict recursive
    descent parser and a printer that round-trips through it.

    The parser accepts exactly the JSON grammar (RFC 8259) with two
    deliberate limits suited to a line protocol: numbers are parsed as
    OCaml floats, and [\uXXXX] escapes are decoded to UTF-8 (surrogate
    pairs included).  Any malformed input yields [Error] with a position
    and reason — never an exception — so a corrupt request line or a
    damaged cache entry degrades into a structured rejection. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON document; trailing non-whitespace is an error. *)

val print : t -> string
(** Compact rendering; [parse (print v)] returns a value equal to [v]
    (object field order preserved). *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on missing field or non-object. *)

val to_string_opt : t -> string option
val to_float_opt : t -> float option
val to_int_opt : t -> int option
(** [Num] with an integral value. *)

val to_bool_opt : t -> bool option
