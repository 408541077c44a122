(** CNF construction context.

    Thin layer over {!Qxm_sat.Solver} that hands out fresh variables and
    Tseitin-encodes the Boolean structure the symbolic formulation of the
    mapping problem needs (conjunctions, disjunctions, equivalences).

    Every structural action (fresh variable, clause, declared-unsat marker,
    encoding scope) is also reported through an optional {e tap}, which is
    how {!Qxm_lint.Cnf_lint} observes an encoding as it is built without
    the encoders knowing about the linter. *)

type t

(** A named region of the clause stream.  Encoders such as
    {!Amo.at_most_one} wrap their output in a scope carrying the encoding
    family and the input size, so a downstream analyzer can check the
    produced clauses against the expected shape. *)
type scope = { kind : string; arity : int }

(** What the tap observes.  Clauses are reported {e before} normalization,
    so an analyzer sees duplicate literals even though the solver never
    does. *)
type event =
  | Ev_fresh of int  (** auxiliary variable allocated (variable index) *)
  | Ev_clause of Qxm_sat.Lit.t list  (** clause as given by the caller *)
  | Ev_unsat of string  (** intentional unsatisfiability, with reason *)
  | Ev_scope_open of scope
  | Ev_scope_close of scope

val create : Qxm_sat.Solver.t -> t
val solver : t -> Qxm_sat.Solver.t

val set_tap : t -> (event -> unit) option -> unit
(** Install (or remove) the event tap.  At most one tap is active. *)

val in_scope : t -> kind:string -> arity:int -> (unit -> 'a) -> 'a
(** Run the function between [Ev_scope_open] and [Ev_scope_close] events
    (the close event fires even on exceptions).  Without a tap this is
    just the function call. *)

val fresh : t -> Qxm_sat.Lit.t
(** Positive literal of a newly allocated variable. *)

val add : t -> Qxm_sat.Lit.t list -> unit
(** Add a clause.  The clause is normalized before it reaches the solver:
    duplicate literals are dropped.  An empty clause is {e flagged} — it
    increments {!empty_clauses}, is reported to the tap, and only then
    makes the instance unsatisfiable — because an empty clause arriving
    here is almost always an encoder bug.  Use {!add_unsat} to make an
    instance unsatisfiable on purpose. *)

(** {2 Buffered clause construction}

    The allocation-free path for hot encoder loops: literals are pushed
    into one reusable buffer and handed to the solver's
    {!Qxm_sat.Solver.add_clause_buf}, so emitting a clause allocates
    nothing beyond its arena words (the pre-normalization [Ev_clause]
    list is only materialized while a tap is installed).  Semantics are
    identical to {!add} — same normalization, same empty-clause flagging,
    same tap events.  The buffer is shared: a [add_begin]/[add_lit]
    sequence must finish with [add_end] before any other clause-adding
    call on the same context. *)

val add_begin : t -> unit
(** Start a buffered clause (clears the buffer). *)

val add_lit : t -> Qxm_sat.Lit.t -> unit
(** Append one literal to the buffered clause. *)

val add_end : t -> unit
(** Finish the buffered clause: report it to the tap and add it. *)

val add2 : t -> Qxm_sat.Lit.t -> Qxm_sat.Lit.t -> unit
(** [add2 t a b] is [add t [a; b]] without the list allocation. *)

val add3 : t -> Qxm_sat.Lit.t -> Qxm_sat.Lit.t -> Qxm_sat.Lit.t -> unit
(** [add3 t a b c] is [add t [a; b; c]] without the list allocation. *)

val add_unsat : t -> reason:string -> unit
(** Deliberately make the instance unsatisfiable (e.g. an at-least-one
    constraint over the empty set).  Reported to the tap as [Ev_unsat]
    rather than as an empty clause, so linting can tell an intended
    contradiction from a malformed one. *)

val empty_clauses : t -> int
(** Number of (unintentional) empty clauses that went through {!add}. *)

val true_ : t -> Qxm_sat.Lit.t
(** A literal constrained to be true (allocated lazily, shared). *)

val false_ : t -> Qxm_sat.Lit.t

val and_ : t -> Qxm_sat.Lit.t list -> Qxm_sat.Lit.t
(** [and_ t ls] is a literal [y] with [y <-> /\ ls].  Returns {!true_} on
    the empty list. *)

val or_ : t -> Qxm_sat.Lit.t list -> Qxm_sat.Lit.t
(** [or_ t ls] is a literal [y] with [y <-> \/ ls].  Returns {!false_} on
    the empty list. *)

val xor_ : t -> Qxm_sat.Lit.t -> Qxm_sat.Lit.t -> Qxm_sat.Lit.t
val iff : t -> Qxm_sat.Lit.t -> Qxm_sat.Lit.t -> Qxm_sat.Lit.t

val implies : t -> Qxm_sat.Lit.t -> Qxm_sat.Lit.t -> unit
(** Add the clause [a -> b]. *)

val equiv_and : t -> Qxm_sat.Lit.t -> Qxm_sat.Lit.t list -> unit
(** [equiv_and t y ls] constrains [y <-> /\ ls] for an existing literal. *)

val equiv_or : t -> Qxm_sat.Lit.t -> Qxm_sat.Lit.t list -> unit
(** [equiv_or t y ls] constrains [y <-> \/ ls] for an existing literal. *)

val imp_and : t -> Qxm_sat.Lit.t -> Qxm_sat.Lit.t list -> unit
(** [imp_and t y ls] constrains [y -> /\ ls] only (left implication). *)

val and_imp : t -> Qxm_sat.Lit.t list -> Qxm_sat.Lit.t -> unit
(** [and_imp t ls y] constrains [/\ ls -> y] only. *)

val num_aux : t -> int
(** Number of auxiliary variables allocated through this context. *)
