(** Static analysis of CNF encodings as they are built.

    Attaches to a {!Qxm_encode.Cnf} context through its event tap and
    watches the clause stream: clauses are observed {e before}
    normalization, auxiliary variables as they are allocated, and encoder
    scopes ({!Qxm_encode.Amo}) as they open and
    close.  Scope contents are checked against the clause/auxiliary shape
    the named encoding must produce for its arity — the analyzer mirrors
    each encoder's recursion, so a mutated encoder that drops or distorts
    clauses is caught even when the result happens to stay satisfiable.

    Diagnostics (see [doc/LINT.md]):
    - [QL-E001] (error) empty clause added through {!Qxm_encode.Cnf.add}
    - [QL-E002] (warning) tautological clause (both polarities of a var)
    - [QL-E003] (warning) repeated literal inside one clause
    - [QL-E004] (warning) clause repeats an earlier clause
    - [QL-E005] (error) contradictory unit clauses
    - [QL-E006] (warning) auxiliary variables never constrained
    - [QL-E007] (error) AMO/ALO/EO scope shape violation
    - [QL-E009] (info) intentional unsatisfiability declared *)

type t

val create : unit -> t

val attach : Qxm_encode.Cnf.t -> t
(** Create an analyzer and install it as the context's tap (replacing any
    previous tap). *)

val observe : t -> Qxm_encode.Cnf.event -> unit
(** Feed one event by hand.  This is what {!attach} wires up; mutation
    tests use it directly to replay doctored event streams. *)

val report : t -> Diagnostic.t list
(** All findings so far, in observation order; the stream-wide checks that
    need the whole history (contradictory units are flagged on the second
    unit, unconstrained auxiliaries only here) are appended at the end.
    [report] does not consume the analyzer — more events may follow. *)
