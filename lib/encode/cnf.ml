module Solver = Qxm_sat.Solver
module Lit = Qxm_sat.Lit
module Vec = Qxm_sat.Vec

type scope = { kind : string; arity : int }

type event =
  | Ev_fresh of int
  | Ev_clause of Lit.t list
  | Ev_unsat of string
  | Ev_scope_open of scope
  | Ev_scope_close of scope

type t = {
  solver : Solver.t;
  buf : Vec.Int.t; (* reusable clause buffer for the allocation-free path *)
  mutable const_true : Lit.t option;
  mutable num_aux : int;
  mutable empty_clauses : int;
  mutable tap : (event -> unit) option;
}

let create solver =
  {
    solver;
    buf = Vec.Int.create ~capacity:16 ();
    const_true = None;
    num_aux = 0;
    empty_clauses = 0;
    tap = None;
  }

let solver t = t.solver
let set_tap t tap = t.tap <- tap
let emit t ev = match t.tap with None -> () | Some f -> f ev

let in_scope t ~kind ~arity f =
  let scope = { kind; arity } in
  emit t (Ev_scope_open scope);
  Fun.protect ~finally:(fun () -> emit t (Ev_scope_close scope)) f

let fresh t =
  t.num_aux <- t.num_aux + 1;
  let v = Solver.new_var t.solver in
  emit t (Ev_fresh v);
  Lit.pos v

(* Normalize the buffer in place — ascending insertion sort, then dedup —
   so the solver (and its DRUP input log) sees exactly what
   [List.sort_uniq Lit.compare] used to produce, without the list
   allocation. *)
let normalize_buf v =
  let n = Vec.Int.size v in
  for i = 1 to n - 1 do
    let x = Vec.Int.unsafe_get v i in
    let j = ref i in
    while !j > 0 && Vec.Int.unsafe_get v (!j - 1) > x do
      Vec.Int.unsafe_set v !j (Vec.Int.unsafe_get v (!j - 1));
      decr j
    done;
    Vec.Int.unsafe_set v !j x
  done;
  let m = ref 0 in
  for i = 0 to n - 1 do
    let x = Vec.Int.unsafe_get v i in
    if !m = 0 || Vec.Int.unsafe_get v (!m - 1) <> x then begin
      Vec.Int.unsafe_set v !m x;
      incr m
    end
  done;
  Vec.Int.shrink v !m

(* Finish a buffered clause: count the empty clause — almost always an
   encoder bug — normalize, and hand the buffer to the solver.
   Intentional unsatisfiability goes through {!add_unsat}. *)
let finish_buf t =
  if Vec.Int.is_empty t.buf then t.empty_clauses <- t.empty_clauses + 1;
  normalize_buf t.buf;
  Solver.add_clause_buf t.solver t.buf

let add t clause =
  emit t (Ev_clause clause);
  Vec.Int.clear t.buf;
  List.iter (Vec.Int.push t.buf) clause;
  finish_buf t

let add_begin t = Vec.Int.clear t.buf
let add_lit t l = Vec.Int.push t.buf l

let add_end t =
  (match t.tap with
  | None -> ()
  | Some f -> f (Ev_clause (Vec.Int.to_list t.buf)));
  finish_buf t

let add2 t a b =
  (match t.tap with None -> () | Some f -> f (Ev_clause [ a; b ]));
  Vec.Int.clear t.buf;
  Vec.Int.push t.buf a;
  Vec.Int.push t.buf b;
  finish_buf t

let add3 t a b c =
  (match t.tap with None -> () | Some f -> f (Ev_clause [ a; b; c ]));
  Vec.Int.clear t.buf;
  Vec.Int.push t.buf a;
  Vec.Int.push t.buf b;
  Vec.Int.push t.buf c;
  finish_buf t

let add_unsat t ~reason =
  emit t (Ev_unsat reason);
  Solver.add_clause t.solver []

let empty_clauses t = t.empty_clauses

let true_ t =
  match t.const_true with
  | Some l -> l
  | None ->
      let l = fresh t in
      add t [ l ];
      t.const_true <- Some l;
      l

let false_ t = Lit.negate (true_ t)

let equiv_and t y ls =
  (* y -> each l;  /\ ls -> y *)
  List.iter (fun l -> add2 t (Lit.negate y) l) ls;
  add_begin t;
  add_lit t y;
  List.iter (fun l -> add_lit t (Lit.negate l)) ls;
  add_end t

let equiv_or t y ls =
  List.iter (fun l -> add2 t (Lit.negate l) y) ls;
  add_begin t;
  add_lit t (Lit.negate y);
  List.iter (add_lit t) ls;
  add_end t

let imp_and t y ls = List.iter (fun l -> add2 t (Lit.negate y) l) ls

let and_imp t ls y =
  add_begin t;
  add_lit t y;
  List.iter (fun l -> add_lit t (Lit.negate l)) ls;
  add_end t

let and_ t = function
  | [] -> true_ t
  | [ l ] -> l
  | ls ->
      let y = fresh t in
      equiv_and t y ls;
      y

let or_ t = function
  | [] -> false_ t
  | [ l ] -> l
  | ls ->
      let y = fresh t in
      equiv_or t y ls;
      y

let xor_ t a b =
  let y = fresh t in
  add3 t (Lit.negate y) a b;
  add3 t (Lit.negate y) (Lit.negate a) (Lit.negate b);
  add3 t y (Lit.negate a) b;
  add3 t y a (Lit.negate b);
  y

let iff t a b = xor_ t a (Lit.negate b)
let implies t a b = add2 t (Lit.negate a) b
let num_aux t = t.num_aux
