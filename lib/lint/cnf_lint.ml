module Lit = Qxm_sat.Lit
module Cnf = Qxm_encode.Cnf

(* A frame accumulates what one open scope produced directly: clause sizes
   (pre-normalization), auxiliary allocations, declared-unsat events and
   closed child scopes.  Events inside a nested scope belong to that scope
   only — the parent sees the child as a single (kind, arity) entry. *)
type frame = {
  scope : Cnf.scope;
  sizes : (int, int) Hashtbl.t;
  mutable aux : int;
  mutable unsat : int;
  mutable children : Cnf.scope list;
}

type t = {
  mutable rev_diags : Diagnostic.t list;
  mutable stack : frame list;
  seen_clauses : (Lit.t list, unit) Hashtbl.t; (* normalized clause keys *)
  units : (Lit.t, unit) Hashtbl.t;
  fresh_vars : (int, unit) Hashtbl.t;
  used_vars : (int, unit) Hashtbl.t;
}

let create () =
  {
    rev_diags = [];
    stack = [];
    seen_clauses = Hashtbl.create 1024;
    units = Hashtbl.create 64;
    fresh_vars = Hashtbl.create 256;
    used_vars = Hashtbl.create 256;
  }

let diag t ?loc ~code ~severity fmt =
  Format.kasprintf
    (fun message ->
      t.rev_diags <-
        Diagnostic.make ?loc ~code ~severity message :: t.rev_diags)
    fmt

let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

(* -- expected encoder shapes ---------------------------------------------- *)

(* The (clause-size -> count, aux, children, unsat) profile each encoding
   family must produce for a given arity.  These mirror the recursions in
   Qxm_encode.Amo — if an encoder changes, its
   mirror here must change with it (the seeded-defect tests in
   test_lint.ml enforce the pairing). *)
type shape = {
  e_sizes : (int * int) list; (* clause size -> count, ascending sizes *)
  e_aux : int;
  e_children : (string * int) list; (* (kind, arity), sorted *)
  e_unsat : int;
}

let sorted_sizes tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.filter (fun (_, v) -> v > 0)
  |> List.sort compare

let shape_of_tbl tbl aux children unsat =
  {
    e_sizes = sorted_sizes tbl;
    e_aux = aux;
    e_children =
      List.sort compare
        (List.map (fun (s : Cnf.scope) -> (s.kind, s.arity)) children);
    e_unsat = unsat;
  }

let pairwise_shape n =
  {
    e_sizes = (if n >= 2 then [ (2, n * (n - 1) / 2) ] else []);
    e_aux = 0;
    e_children = [];
    e_unsat = 0;
  }

let sequential_shape n =
  {
    e_sizes = (if n >= 2 then [ (2, 3 * (n - 1)) ] else []);
    e_aux = (if n >= 2 then n - 1 else 0);
    e_children = [];
    e_unsat = 0;
  }

let commander_shape n =
  if n <= 3 then
    { e_sizes = []; e_aux = 0; e_children = [ ("amo-pairwise", n) ]; e_unsat = 0 }
  else begin
    let full = n / 3 and rem = n mod 3 in
    let groups = full + if rem > 0 then 1 else 0 in
    (* per group: |g| binary clauses plus one of size |g|+1 (equiv_or),
       one commander variable; then one recursive scope on the
       commanders *)
    let tbl = Hashtbl.create 4 in
    Hashtbl.replace tbl 2 n;
    for _ = 1 to full do
      bump tbl 4
    done;
    if rem > 0 then bump tbl (rem + 1);
    let children =
      List.init full (fun _ -> ("amo-pairwise", 3))
      @ (if rem > 0 then [ ("amo-pairwise", rem) ] else [])
      @ [ ("amo-commander", groups) ]
    in
    {
      e_sizes = sorted_sizes tbl;
      e_aux = groups;
      e_children = List.sort compare children;
      e_unsat = 0;
    }
  end

let alo_shape n =
  if n = 0 then { e_sizes = []; e_aux = 0; e_children = []; e_unsat = 1 }
  else { e_sizes = [ (n, 1) ]; e_aux = 0; e_children = []; e_unsat = 0 }

let pp_sizes sizes =
  if sizes = [] then "no clauses"
  else
    String.concat ", "
      (List.map (fun (s, c) -> Printf.sprintf "%dx size-%d" c s) sizes)

let pp_children cs =
  if cs = [] then "none"
  else
    String.concat ", "
      (List.map (fun (k, a) -> Printf.sprintf "%s/%d" k a) cs)

let amo_kinds = [ "amo-pairwise"; "amo-sequential"; "amo-commander" ]

(* Compare a closed frame against the expectation for its kind.  Unknown
   kinds are not checked (callers may introduce their own scopes). *)
let check_scope t frame =
  let actual =
    shape_of_tbl frame.sizes frame.aux frame.children frame.unsat
  in
  let n = frame.scope.arity in
  let expected, code =
    match frame.scope.kind with
    | "amo-pairwise" -> (Some (pairwise_shape n), "QL-E007")
    | "amo-sequential" -> (Some (sequential_shape n), "QL-E007")
    | "amo-commander" -> (Some (commander_shape n), "QL-E007")
    | "alo" -> (Some (alo_shape n), "QL-E007")
    | "eo" ->
        (* exactly-one delegates everything: one alo child plus one
           at-most-one child of some encoding, nothing direct *)
        let ok =
          actual.e_sizes = [] && actual.e_aux = 0 && actual.e_unsat = 0
          &&
          match actual.e_children with
          | [ (a, na); (b, nb) ] ->
              (a = "alo" && na = n && nb = n && List.mem b amo_kinds)
              || (b = "alo" && nb = n && na = n && List.mem a amo_kinds)
          | _ -> false
        in
        if ok then (None, "")
        else begin
          diag t ~code:"QL-E007" ~severity:Diagnostic.Error
            "exactly-one over %d inputs decomposed wrongly: direct %s, %d \
             aux, children %s (expected only an alo/%d child and one \
             at-most-one/%d child)"
            n (pp_sizes actual.e_sizes) actual.e_aux
            (pp_children actual.e_children)
            n n;
          (None, "")
        end
    | _ -> (None, "")
  in
  match expected with
  | None -> ()
  | Some e ->
      if actual.e_sizes <> e.e_sizes then
        diag t ~code ~severity:Diagnostic.Error
          "%s over %d inputs produced %s (expected %s)" frame.scope.kind n
          (pp_sizes actual.e_sizes) (pp_sizes e.e_sizes);
      if actual.e_aux <> e.e_aux then
        diag t ~code ~severity:Diagnostic.Error
          "%s over %d inputs allocated %d auxiliary variable(s) (expected \
           %d)"
          frame.scope.kind n actual.e_aux e.e_aux;
      if actual.e_children <> e.e_children then
        diag t ~code ~severity:Diagnostic.Error
          "%s over %d inputs opened child scopes %s (expected %s)"
          frame.scope.kind n
          (pp_children actual.e_children)
          (pp_children e.e_children);
      if actual.e_unsat <> e.e_unsat then
        diag t ~code ~severity:Diagnostic.Error
          "%s over %d inputs declared unsat %d time(s) (expected %d)"
          frame.scope.kind n actual.e_unsat e.e_unsat

(* -- event stream --------------------------------------------------------- *)

let observe_clause t lits =
  List.iter (fun l -> Hashtbl.replace t.used_vars (Lit.var l) ()) lits;
  let n = List.length lits in
  (match t.stack with
  | frame :: _ -> bump frame.sizes n
  | [] -> ());
  if n = 0 then
    diag t ~code:"QL-E001" ~severity:Diagnostic.Error
      "empty clause added to the encoding (use add_unsat for intentional \
       contradictions)"
  else begin
    let sorted = List.sort Lit.compare lits in
    let rec dups = function
      | a :: (b :: _ as rest) ->
          if Lit.equal a b then
            diag t ~code:"QL-E003" ~severity:Diagnostic.Warning
              "literal %d repeated inside one clause" (Lit.to_int a);
          dups (List.filter (fun l -> not (Lit.equal l a)) rest)
      | _ -> ()
    in
    dups sorted;
    let normalized = List.sort_uniq Lit.compare lits in
    let rec taut = function
      | a :: (b :: _ as rest) ->
          if Lit.var a = Lit.var b && not (Lit.equal a b) then
            diag t ~code:"QL-E002" ~severity:Diagnostic.Warning
              "tautological clause: contains both polarities of variable \
               %d"
              (Lit.var a)
          else taut rest
      | _ -> ()
    in
    taut normalized;
    if Hashtbl.mem t.seen_clauses normalized then
      diag t ~code:"QL-E004" ~severity:Diagnostic.Warning
        "clause {%s} repeats an earlier clause"
        (String.concat ", "
           (List.map (fun l -> string_of_int (Lit.to_int l)) normalized))
    else Hashtbl.replace t.seen_clauses normalized ();
    match normalized with
    | [ u ] ->
        if Hashtbl.mem t.units (Lit.negate u) then
          diag t ~code:"QL-E005" ~severity:Diagnostic.Error
            "contradictory unit clauses: both %d and %d asserted"
            (Lit.to_int (Lit.negate u))
            (Lit.to_int u);
        Hashtbl.replace t.units u ()
    | _ -> ()
  end

let observe t ev =
  match ev with
  | Cnf.Ev_fresh v ->
      Hashtbl.replace t.fresh_vars v ();
      (match t.stack with
      | frame :: _ -> frame.aux <- frame.aux + 1
      | [] -> ())
  | Cnf.Ev_clause lits -> observe_clause t lits
  | Cnf.Ev_unsat reason ->
      (match t.stack with
      | frame :: _ -> frame.unsat <- frame.unsat + 1
      | [] -> ());
      diag t ~code:"QL-E009" ~severity:Diagnostic.Info
        "encoding declared unsatisfiable: %s" reason
  | Cnf.Ev_scope_open scope ->
      t.stack <-
        {
          scope;
          sizes = Hashtbl.create 8;
          aux = 0;
          unsat = 0;
          children = [];
        }
        :: t.stack
  | Cnf.Ev_scope_close scope -> (
      match t.stack with
      | frame :: rest when frame.scope = scope ->
          t.stack <- rest;
          check_scope t frame;
          (match rest with
          | parent :: _ -> parent.children <- scope :: parent.children
          | [] -> ())
      | _ ->
          diag t ~code:"QL-E007" ~severity:Diagnostic.Error
            "scope close for %s/%d does not match the innermost open scope"
            scope.kind scope.arity)

let attach cnf =
  let t = create () in
  Cnf.set_tap cnf (Some (observe t));
  t

let report t =
  let unconstrained =
    Hashtbl.fold
      (fun v () acc -> if Hashtbl.mem t.used_vars v then acc else v :: acc)
      t.fresh_vars []
    |> List.sort compare
  in
  let tail =
    match unconstrained with
    | [] -> []
    | vs ->
        let sample =
          List.filteri (fun i _ -> i < 5) vs
          |> List.map string_of_int |> String.concat ", "
        in
        [
          Diagnostic.makef ~code:"QL-E006" ~severity:Diagnostic.Warning
            "%d auxiliary variable(s) allocated but never constrained \
             (variables %s%s)"
            (List.length vs) sample
            (if List.length vs > 5 then ", ..." else "");
        ]
  in
  List.rev t.rev_diags @ tail
