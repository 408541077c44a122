(** DIMACS CNF reader/writer.

    Used by the standalone [dimacs_solve] tool and by tests that check the
    solver against hand-written instances. *)

exception Parse_error of { line : int; message : string }
(** Malformed input, with the 1-based source line it was found on
    (mirrors [Qxm_circuit.Qasm.Parse_error]). *)

type problem = { num_vars : int; clauses : Lit.t list list }

val parse_string : string -> problem
(** Parse DIMACS CNF text. Accepts comment lines ([c ...]), a problem line
    ([p cnf <vars> <clauses>]) and zero-terminated clauses; tolerates a
    clause count that disagrees with the header.
    @raise Parse_error on malformed input (bad tokens, literals beyond the
    declared variable count — or, with no problem line, beyond the count
    a problem line may declare — duplicate or unparseable problem
    lines). *)

val parse_file : string -> problem

val load : Solver.t -> problem -> unit
(** Allocate the problem's variables in order and add all clauses. *)

val pp : Format.formatter -> problem -> unit
(** Print in DIMACS CNF format. *)

val pp_model : Format.formatter -> bool array -> unit
(** Print a model as a ["v ..."] solution line. *)
