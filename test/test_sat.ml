(* Tests for the CDCL solver substrate: Vec, Lit, Heap, Watches, Solver,
   Dimacs. *)

open Test_util
module Vec = Qxm_sat.Vec
module Lit = Qxm_sat.Lit
module Heap = Qxm_sat.Heap
module Watches = Qxm_sat.Watches
module Solver = Qxm_sat.Solver
module Dimacs = Qxm_sat.Dimacs

(* -- Vec ------------------------------------------------------------- *)

let test_vec_push_pop () =
  let v = Vec.Int.create () in
  for i = 0 to 99 do
    Vec.Int.push v i
  done;
  Alcotest.(check int) "size" 100 (Vec.Int.size v);
  Alcotest.(check int) "get" 42 (Vec.Int.get v 42);
  Alcotest.(check int) "pop" 99 (Vec.Int.pop v);
  Alcotest.(check int) "size after pop" 99 (Vec.Int.size v);
  Vec.Int.shrink v 10;
  Alcotest.(check int) "shrink" 10 (Vec.Int.size v);
  Vec.Int.clear v;
  Alcotest.(check bool) "empty" true (Vec.Int.is_empty v)

let test_vec_swap_remove () =
  let v = Vec.Int.of_list [ 0; 1; 2; 3; 4 ] in
  Vec.Int.swap_remove v 1;
  Alcotest.(check (list int)) "swap_remove" [ 0; 4; 2; 3 ]
    (Vec.Int.to_list v)

let test_vec_grow_to () =
  let v = Vec.Int.create () in
  Vec.Int.grow_to v 5 7;
  Alcotest.(check (list int)) "grow" [ 7; 7; 7; 7; 7 ] (Vec.Int.to_list v)

let test_vec_bounds () =
  let v = Vec.Int.of_list [ 1 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.Int.get")
    (fun () -> ignore (Vec.Int.get v 1));
  let empty = Vec.Int.create () in
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.Int.pop")
    (fun () -> ignore (Vec.Int.pop empty))

let test_poly_filter () =
  let v = Vec.Poly.create () in
  List.iter (Vec.Poly.push v) [ 1; 2; 3; 4; 5; 6 ];
  Vec.Poly.filter_in_place (fun x -> x mod 2 = 0) v;
  Alcotest.(check (list int)) "filter" [ 2; 4; 6 ] (Vec.Poly.to_list v)

let vec_roundtrip =
  qtest "vec of_list/to_list roundtrip"
    QCheck2.Gen.(list small_int)
    (fun l -> Vec.Int.to_list (Vec.Int.of_list l) = l)

(* -- Lit ------------------------------------------------------------- *)

let test_lit_basic () =
  let l = Lit.make 3 true in
  Alcotest.(check int) "var" 3 (Lit.var l);
  Alcotest.(check bool) "sign" true (Lit.sign l);
  Alcotest.(check bool) "negate sign" false (Lit.sign (Lit.negate l));
  Alcotest.(check int) "negate var" 3 (Lit.var (Lit.negate l));
  Alcotest.(check int) "double negate" l (Lit.negate (Lit.negate l))

let test_lit_dimacs () =
  Alcotest.(check int) "pos" 4 (Lit.to_int (Lit.pos 3));
  Alcotest.(check int) "neg" (-4) (Lit.to_int (Lit.neg_of 3));
  Alcotest.check_raises "of_int 0" (Invalid_argument "Lit.of_int: zero")
    (fun () -> ignore (Lit.of_int 0))

let lit_roundtrip =
  qtest "lit dimacs roundtrip"
    QCheck2.Gen.(int_range 1 10_000)
    (fun i ->
      Lit.to_int (Lit.of_int i) = i && Lit.to_int (Lit.of_int (-i)) = -i)

(* -- Heap ------------------------------------------------------------ *)

let heap_sorts =
  qtest "heap pops in activity order"
    QCheck2.Gen.(list_size (int_range 1 50) (float_range 0.0 100.0))
    (fun acts ->
      let act = Array.of_list acts in
      let h = Heap.create () in
      Array.iteri (fun v _ -> Heap.push h v act) act;
      let popped = ref [] in
      while not (Heap.is_empty h) do
        popped := Heap.pop h act :: !popped
      done;
      let ascending = List.rev !popped in
      (* popped in descending activity: reversed list is ascending *)
      let rec ok = function
        | a :: (b :: _ as rest) -> act.(a) <= act.(b) && ok rest
        | _ -> true
      in
      ok (List.rev ascending) && List.length !popped = Array.length act)

let test_heap_decrease () =
  let act = [| 1.0; 2.0; 3.0 |] in
  let h = Heap.create () in
  Array.iteri (fun v _ -> Heap.push h v act) act;
  act.(0) <- 10.0;
  Heap.decrease h 0 act;
  Alcotest.(check int) "bumped to top" 0 (Heap.pop h act)

(* The swap-based sifts the hole-based heap replaced, kept as a layout
   oracle: the solver's branching order depends on the exact layout, not
   only on the heap property. *)
module Swap_heap = struct
  type t = { heap : int array; mutable n : int; index : int array }

  let create nv = { heap = Array.make nv 0; n = 0; index = Array.make nv (-1) }

  let swap t i j =
    let vi = t.heap.(i) and vj = t.heap.(j) in
    t.heap.(i) <- vj;
    t.heap.(j) <- vi;
    t.index.(vi) <- j;
    t.index.(vj) <- i

  let rec up t (act : float array) i =
    let p = (i - 1) / 2 in
    if i > 0 && act.(t.heap.(i)) > act.(t.heap.(p)) then begin
      swap t i p;
      up t act p
    end

  let rec down t (act : float array) i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let best = if l < t.n && act.(t.heap.(l)) > act.(t.heap.(i)) then l else i in
    let best =
      if r < t.n && act.(t.heap.(r)) > act.(t.heap.(best)) then r else best
    in
    if best <> i then begin
      swap t i best;
      down t act best
    end

  let push t act v =
    if t.index.(v) < 0 then begin
      t.heap.(t.n) <- v;
      t.index.(v) <- t.n;
      t.n <- t.n + 1;
      up t act (t.n - 1)
    end

  let pop t act =
    let top = t.heap.(0) in
    t.n <- t.n - 1;
    t.index.(top) <- -1;
    if t.n > 0 then begin
      let last = t.heap.(t.n) in
      t.heap.(0) <- last;
      t.index.(last) <- 0;
      down t act 0
    end;
    top
end

(* Random pushes, pops and bumps over few distinct activities (so ties
   are common) leave the same layout as the swap-based heap after every
   operation, and pop the same variables. *)
let heap_layout_matches_swap_sift =
  let nv = 24 in
  qtest ~count:300 "heap layout matches the swap-based sift"
    QCheck2.Gen.(
      list_size (int_range 0 200)
        (pair (int_range 0 2) (pair (int_range 0 (nv - 1)) (int_range 0 3))))
    (fun ops ->
      let act = Array.make nv 0.0 in
      let h = Heap.create () and r = Swap_heap.create nv in
      List.for_all
        (fun (kind, (v, k)) ->
          let same_pop =
            match kind with
            | 0 ->
                Heap.push h v act;
                Swap_heap.push r act v;
                true
            | 1 ->
                Heap.is_empty h || Heap.pop h act = Swap_heap.pop r act
            | _ ->
                act.(v) <- act.(v) +. float_of_int k;
                Heap.decrease h v act;
                if r.index.(v) >= 0 then Swap_heap.up r act r.index.(v);
                true
          in
          same_pop
          && Heap.members h = List.init r.n (Array.get r.heap)
          && Heap.check h act = [])
        ops)

(* -- Watches --------------------------------------------------------- *)

type pool_op =
  | Push of int * int * int
  | Shrink of int * int (* keep this percentage of the list *)
  | Remap of int * int * int
      (* in word k of list l, drop multiples of m and add 1 to the rest *)

(* Random operation sequences over many lists, checked after every step
   against a list-of-pairs reference.  The pool starts at its minimum
   size, so relocation, slot reuse and pool growth all happen. *)
let watch_pool_matches_model =
  let nlists = 12 in
  let op =
    QCheck2.Gen.(
      let* l = int_range 0 (nlists - 1) in
      frequency
        [
          ( 8,
            map2 (fun a b -> Push (l, a, b)) (int_range 0 999) (int_range 0 999)
          );
          (1, map (fun k -> Shrink (l, k)) (int_range 0 100));
          (2, map2 (fun k m -> Remap (l, k, m)) (int_range 0 1) (int_range 2 5));
        ])
  in
  qtest ~count:300 "watch pool matches a list-of-pairs model"
    QCheck2.Gen.(list_size (int_range 0 400) op)
    (fun ops ->
      let w = Watches.create () in
      Watches.grow w nlists;
      let model = Array.make nlists [] in
      List.for_all
        (fun op ->
          (match op with
          | Push (l, a, b) ->
              Watches.push w l a b;
              model.(l) <- model.(l) @ [ (a, b) ]
          | Shrink (l, pct) ->
              let n = List.length model.(l) * pct / 100 in
              Watches.shrink w l n;
              model.(l) <- List.filteri (fun i _ -> i < n) model.(l)
          | Remap (l, k, m) ->
              let f x = if x mod m = 0 then -1 else x + 1 in
              Watches.remap w l k f;
              model.(l) <-
                List.filter_map
                  (fun (a, b) ->
                    match (k, f a, f b) with
                    | 0, a', _ when a' >= 0 -> Some (a', b)
                    | 1, _, b' when b' >= 0 -> Some (a, b')
                    | _ -> None)
                  model.(l));
          Watches.check w = []
          && List.for_all
               (fun l -> Watches.to_list w l = model.(l))
               (List.init nlists Fun.id))
        ops)

(* The three ways a list gets a slot, observed on the pool itself. *)
let test_watch_pool_slots () =
  let w = Watches.create () in
  Watches.grow w 3;
  let fill l n =
    for i = 1 to n do
      Watches.push w l i (-i)
    done
  in
  fill 0 4;
  Alcotest.(check int) "first slot from the top" 0 w.off.(0);
  fill 0 1;
  Alcotest.(check int) "outgrown: a slot of twice the size" 8 w.cap.(0);
  Alcotest.(check int) "top after the move" 24 w.top;
  fill 1 1;
  Alcotest.(check int) "vacated slot reused" 0 w.off.(1);
  Alcotest.(check int) "top unchanged by reuse" 24 w.top;
  let before = Array.length w.pool in
  fill 2 100;
  Alcotest.(check bool) "pool grew" true (Array.length w.pool > before);
  Alcotest.(check (list (pair int int)))
    "contents kept through relocation and growth"
    [ (1, -1); (2, -2); (3, -3); (4, -4); (1, -1) ]
    (Watches.to_list w 0);
  Alcotest.(check (list string)) "pool sound" [] (Watches.check w)

(* -- Solver ---------------------------------------------------------- *)

let test_trivial_sat () =
  let s = solver_with 2 in
  Solver.add_clause s [ Lit.pos 0; Lit.pos 1 ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  let m = Solver.model s in
  Alcotest.(check bool) "model ok" true (m.(0) || m.(1))

let test_trivial_unsat () =
  let s = solver_with 1 in
  Solver.add_clause s [ Lit.pos 0 ];
  Solver.add_clause s [ Lit.neg_of 0 ];
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  Alcotest.(check bool) "not ok" false (Solver.ok s)

let test_empty_clause () =
  let s = solver_with 1 in
  Solver.add_clause s [];
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat)

let test_unit_propagation () =
  let s = solver_with 3 in
  Solver.add_clause s [ Lit.pos 0 ];
  Solver.add_clause s [ Lit.neg_of 0; Lit.pos 1 ];
  Solver.add_clause s [ Lit.neg_of 1; Lit.pos 2 ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "chain" true
    (Solver.value s (Lit.pos 0)
    && Solver.value s (Lit.pos 1)
    && Solver.value s (Lit.pos 2))

let test_tautology_ignored () =
  let s = solver_with 1 in
  Solver.add_clause s [ Lit.pos 0; Lit.neg_of 0 ];
  Alcotest.(check int) "no clause stored" 0 (Solver.nclauses s);
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat)

let test_assumptions () =
  let s = solver_with 2 in
  Solver.add_clause s [ Lit.pos 0; Lit.pos 1 ];
  Alcotest.(check bool) "sat under a=false,b=true" true
    (Solver.solve ~assumptions:[ Lit.neg_of 0; Lit.pos 1 ] s = Solver.Sat);
  Alcotest.(check bool) "unsat under both false" true
    (Solver.solve ~assumptions:[ Lit.neg_of 0; Lit.neg_of 1 ] s
    = Solver.Unsat);
  (* solver must remain usable after an assumption failure *)
  Alcotest.(check bool) "sat again" true (Solver.solve s = Solver.Sat)

let test_unsat_core () =
  let s = solver_with 3 in
  Solver.add_clause s [ Lit.neg_of 0; Lit.neg_of 1 ];
  let r =
    Solver.solve ~assumptions:[ Lit.pos 0; Lit.pos 1; Lit.pos 2 ] s
  in
  Alcotest.(check bool) "unsat" true (r = Solver.Unsat);
  let core = Solver.unsat_core s in
  Alcotest.(check bool) "core nonempty" true (core <> []);
  Alcotest.(check bool) "core only over conflicting assumptions" true
    (List.for_all (fun l -> Lit.var l < 2) core)

(* n+1 pigeons in n holes: classic UNSAT family. *)
let test_pigeonhole_build s n =
  let v p h = Lit.pos ((p * n) + h) in
  for _ = 1 to (n + 1) * n do
    ignore (Solver.new_var s)
  done;
  for p = 0 to n do
    Solver.add_clause s (List.init n (fun h -> v p h))
  done;
  for h = 0 to n - 1 do
    for p1 = 0 to n do
      for p2 = p1 + 1 to n do
        Solver.add_clause s [ Lit.negate (v p1 h); Lit.negate (v p2 h) ]
      done
    done
  done

let test_pigeonhole n () =
  let s = Solver.create () in
  test_pigeonhole_build s n;
  Alcotest.(check bool) "php unsat" true (Solver.solve s = Solver.Unsat)

let test_conflict_limit () =
  let s = solver_with 1 in
  Solver.add_clause s [ Lit.pos 0 ];
  (* a limit of 0 conflicts still solves trivial instances *)
  Alcotest.(check bool) "solves within budget" true
    (Solver.solve ~conflict_limit:max_int s = Solver.Sat)

let solver_agrees_with_brute_force =
  qtest ~count:300 "solver agrees with brute force"
    (cnf_gen ~max_vars:8 ~max_clauses:30 ~max_len:3)
    (fun (nvars, clauses) ->
      let s = solver_with nvars in
      List.iter (Solver.add_clause s) clauses;
      let expected = brute_sat nvars clauses in
      match Solver.solve s with
      | Solver.Sat -> expected && model_satisfies clauses (Solver.model s)
      | Solver.Unsat -> not expected
      | Solver.Unknown -> false)

let solver_models_are_valid =
  qtest ~count:200 "every reported model satisfies the clauses"
    (cnf_gen ~max_vars:20 ~max_clauses:80 ~max_len:4)
    (fun (nvars, clauses) ->
      let s = solver_with nvars in
      List.iter (Solver.add_clause s) clauses;
      match Solver.solve s with
      | Solver.Sat -> model_satisfies clauses (Solver.model s)
      | _ -> true)

let incremental_assumptions_sound =
  qtest ~count:150 "assumption solving matches adding units"
    (cnf_gen ~max_vars:7 ~max_clauses:25 ~max_len:3)
    (fun (nvars, clauses) ->
      let assumption = Lit.pos 0 in
      let s1 = solver_with nvars in
      List.iter (Solver.add_clause s1) clauses;
      let r1 = Solver.solve ~assumptions:[ assumption ] s1 in
      let expected = brute_sat nvars ([ assumption ] :: clauses) in
      match r1 with
      | Solver.Sat -> expected
      | Solver.Unsat -> not expected
      | Solver.Unknown -> false)

(* Rounds of [new_var], [add_clause] and [solve ~assumptions] on one
   sanitized solver, each answer checked against brute force over the
   clauses so far plus the assumptions as units.  The solver starts with
   no capacity, so the trail and analysis buffers grow between solves;
   assumptions may repeat, which opens more decision levels than there
   are variables. *)
let incremental_rounds_sound =
  let open QCheck2.Gen in
  let lit = pair (int_bound 1_000) bool in
  let round =
    triple (int_range 1 2)
      (list_size (int_range 0 8) (list_size (int_range 1 3) lit))
      (list_size (int_range 0 5) lit)
  in
  qtest ~count:150 "sanitized incremental rounds agree with brute force"
    (list_size (int_range 1 6) round)
    (fun rounds ->
      let s = Solver.create () in
      Solver.set_sanitize s true;
      let clauses = ref [] in
      List.for_all
        (fun (fresh, added, assumed) ->
          for _ = 1 to fresh do
            ignore (Solver.new_var s)
          done;
          let n = Solver.nvars s in
          let mk (v, sign) = Lit.make (v mod n) sign in
          let added = List.map (List.map mk) added in
          List.iter (Solver.add_clause s) added;
          clauses := added @ !clauses;
          let assumed = List.map mk assumed in
          let expected =
            brute_sat n (List.map (fun l -> [ l ]) assumed @ !clauses)
          in
          match Solver.solve ~assumptions:assumed s with
          | Solver.Sat ->
              expected
              && model_satisfies !clauses (Solver.model s)
              && List.for_all (Solver.value s) assumed
          | Solver.Unsat -> not expected
          | Solver.Unknown -> false)
        rounds)

(* Six copies of one assumption open five empty decision levels, so the
   conflict on variable 1 is analysed at level 7 of a 3-variable solver:
   the per-level arrays must cover the assumptions, not just the
   variables. *)
let test_repeated_assumptions () =
  let s = solver_with 3 in
  let a = Lit.pos 0 in
  List.iter
    (fun (sb, sc) ->
      Solver.add_clause s [ Lit.negate a; Lit.make 1 sb; Lit.make 2 sc ])
    [ (true, true); (true, false); (false, true); (false, false) ];
  let r = Solver.solve ~assumptions:[ a; a; a; a; a; a ] s in
  Alcotest.(check bool) "unsat" true (r = Solver.Unsat);
  Alcotest.(check bool) "core is the assumption" true
    (Solver.unsat_core s = [ a ]);
  Alcotest.(check bool) "sat without it" true (Solver.solve s = Solver.Sat)

(* -- clause arena ------------------------------------------------------ *)

(* Feeding the same clauses through the list path and the buffered path
   must produce the same search, propagation for propagation: both copy
   the literals into the solver's scratch array and share the rest. *)
let buffered_add_equivalent =
  qtest ~count:200 "add_clause_buf matches add_clause"
    (cnf_gen ~max_vars:8 ~max_clauses:30 ~max_len:3)
    (fun (nvars, clauses) ->
      let s1 = solver_with nvars in
      List.iter (Solver.add_clause s1) clauses;
      let s2 = solver_with nvars in
      let buf = Vec.Int.create () in
      List.iter
        (fun c ->
          Vec.Int.clear buf;
          List.iter (Vec.Int.push buf) c;
          Solver.add_clause_buf s2 buf)
        clauses;
      let r1 = Solver.solve s1 and r2 = Solver.solve s2 in
      let st1 = Solver.stats s1 and st2 = Solver.stats s2 in
      r1 = r2
      && st1.Solver.conflicts = st2.Solver.conflicts
      && st1.Solver.propagations = st2.Solver.propagations
      && st1.Solver.binary_propagations = st2.Solver.binary_propagations)

(* Forcing a copying collection at a quiescent point must relocate every
   live clause consistently: invariants stay clean (the checker audits
   all crefs against the arena layout) and a re-solve still agrees with
   brute force. *)
let compaction_roundtrip =
  qtest ~count:200 "arena compaction preserves state"
    (cnf_gen ~max_vars:8 ~max_clauses:30 ~max_len:4)
    (fun (nvars, clauses) ->
      let s = solver_with nvars in
      List.iter (Solver.add_clause s) clauses;
      let expected = brute_sat nvars clauses in
      let r1 = Solver.solve s in
      Solver.Testing.compact s;
      Solver.check_invariants s = []
      && Solver.solve s = r1
      &&
      match r1 with
      | Solver.Sat -> expected && model_satisfies clauses (Solver.model s)
      | Solver.Unsat -> not expected
      | Solver.Unknown -> false)

let test_compaction_reclaims () =
  (* a deep search accumulates learnt clauses and lazy deletions; after
     compaction the arena must hold no garbage *)
  let s = Solver.create () in
  test_pigeonhole_build s 5;
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  Solver.Testing.compact s;
  Alcotest.(check (list (pair string string))) "invariants clean" []
    (Solver.check_invariants s);
  let st = Solver.stats s in
  Alcotest.(check bool) "collection counted" true (st.arena_collections > 0);
  Alcotest.(check bool) "relocations counted" true (st.arena_relocations > 0)

let test_capacity_reserve () =
  (* pre-sizing must be observationally identical to growing on demand *)
  let run create =
    let s = create () in
    for _ = 1 to 40 do
      ignore (Solver.new_var s)
    done;
    for v = 0 to 38 do
      Solver.add_clause s [ Lit.neg_of v; Lit.pos (v + 1) ]
    done;
    Solver.add_clause s [ Lit.pos 0 ];
    let r = Solver.solve s in
    Alcotest.(check (list (pair string string))) "invariants clean" []
      (Solver.check_invariants s);
    (r, (Solver.stats s).Solver.propagations)
  in
  let cold = run (fun () -> Solver.create ()) in
  let hinted = run (fun () -> Solver.create ~capacity:40 ()) in
  let reserved =
    run (fun () ->
        let s = Solver.create () in
        Solver.reserve s 40;
        s)
  in
  Alcotest.(check bool) "hinted identical" true (cold = hinted);
  Alcotest.(check bool) "reserved identical" true (cold = reserved);
  Alcotest.(check bool) "sat" true (fst cold = Solver.Sat)

(* -- sanitized solving ------------------------------------------------ *)

let with_sanitize f =
  Solver.set_sanitize_all true;
  Fun.protect ~finally:(fun () -> Solver.set_sanitize_all false) f

(* Small DIMACS corpus with known answers, solved under the invariant
   sanitizer: every solve audits the trail, watch lists and heap on entry
   and exit, and we re-audit explicitly afterwards. *)
let dimacs_corpus =
  [
    ("unit chain", "p cnf 3 3\n1 0\n-1 2 0\n-2 3 0\n", true);
    ("contradiction", "p cnf 1 2\n1 0\n-1 0\n", false);
    ("2-sat cycle", "p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n", false);
    ( "php 3 pigeons 2 holes",
      "p cnf 6 9\n1 2 0\n3 4 0\n5 6 0\n-1 -3 0\n-1 -5 0\n-3 -5 0\n-2 -4 \
       0\n-2 -6 0\n-4 -6 0\n",
      false );
    ( "satisfiable 3-cnf",
      "p cnf 5 6\n1 -2 3 0\n-1 2 0\n2 -3 4 0\n-4 5 0\n-2 -5 0\n1 3 5 0\n",
      true );
  ]

let test_sanitized_dimacs_corpus () =
  with_sanitize (fun () ->
      List.iter
        (fun (name, text, expected_sat) ->
          let p = Dimacs.parse_string text in
          let s = Solver.create () in
          Dimacs.load s p;
          Alcotest.(check bool) name expected_sat (Solver.solve s = Solver.Sat);
          Alcotest.(check int)
            (name ^ ": invariants clean")
            0
            (List.length (Solver.check_invariants s)))
        dimacs_corpus)

let test_sanitized_pigeonhole () =
  (* deep search: conflicts, learnt clauses and DB reductions all happen
     with the sanitizer armed *)
  with_sanitize (fun () -> test_pigeonhole 5 ())

(* A deep search under the sanitizer that relocates every watch list
   (an arena collection remaps both pools), audited on exit. *)
let test_sanitized_collect () =
  with_sanitize (fun () ->
      let s = Solver.create () in
      test_pigeonhole_build s 7;
      Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
      let st = Solver.stats s in
      Alcotest.(check bool) "arena collected" true (st.arena_collections > 0);
      Alcotest.(check (list (pair string string))) "invariants clean" []
        (Solver.check_invariants s))

let sanitized_solver_agrees_with_brute_force =
  qtest ~count:150 "sanitized solver agrees with brute force"
    (cnf_gen ~max_vars:8 ~max_clauses:30 ~max_len:3)
    (fun (nvars, clauses) ->
      with_sanitize (fun () ->
          let s = solver_with nvars in
          List.iter (Solver.add_clause s) clauses;
          let expected = brute_sat nvars clauses in
          match Solver.solve s with
          | Solver.Sat -> expected && model_satisfies clauses (Solver.model s)
          | Solver.Unsat -> not expected
          | Solver.Unknown -> false))

(* -- Dimacs ---------------------------------------------------------- *)

let test_dimacs_parse () =
  let p =
    Dimacs.parse_string "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n"
  in
  Alcotest.(check int) "vars" 3 p.num_vars;
  Alcotest.(check int) "clauses" 2 (List.length p.clauses)

let test_dimacs_roundtrip () =
  let p = Dimacs.parse_string "p cnf 4 3\n1 2 0\n-3 4 0\n-1 -4 0\n" in
  let text = Format.asprintf "%a" Dimacs.pp p in
  let p2 = Dimacs.parse_string text in
  Alcotest.(check bool) "roundtrip" true (p.clauses = p2.clauses)

let test_dimacs_bad () =
  Alcotest.(check bool) "rejects junk" true
    (try
       ignore (Dimacs.parse_string "p cnf x y\n");
       false
     with Dimacs.Parse_error { line = 1; _ } -> true)

let test_dimacs_load_solve () =
  let p = Dimacs.parse_string "p cnf 2 2\n1 0\n-1 2 0\n" in
  let s = Solver.create () in
  Dimacs.load s p;
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "forced" true (Solver.value s (Lit.pos 1))

let suite =
  [
    ("vec push/pop", `Quick, test_vec_push_pop);
    ("vec swap_remove", `Quick, test_vec_swap_remove);
    ("vec grow_to", `Quick, test_vec_grow_to);
    ("vec bounds", `Quick, test_vec_bounds);
    ("poly filter_in_place", `Quick, test_poly_filter);
    vec_roundtrip;
    ("lit basics", `Quick, test_lit_basic);
    ("lit dimacs", `Quick, test_lit_dimacs);
    lit_roundtrip;
    heap_sorts;
    ("heap decrease", `Quick, test_heap_decrease);
    heap_layout_matches_swap_sift;
    watch_pool_matches_model;
    ("watch pool slots", `Quick, test_watch_pool_slots);
    ("solver trivial sat", `Quick, test_trivial_sat);
    ("solver trivial unsat", `Quick, test_trivial_unsat);
    ("solver empty clause", `Quick, test_empty_clause);
    ("solver unit propagation", `Quick, test_unit_propagation);
    ("solver tautology ignored", `Quick, test_tautology_ignored);
    ("solver assumptions", `Quick, test_assumptions);
    ("solver unsat core", `Quick, test_unsat_core);
    ("pigeonhole 4", `Quick, test_pigeonhole 4);
    ("pigeonhole 6", `Slow, test_pigeonhole 6);
    ("solver conflict limit", `Quick, test_conflict_limit);
    solver_agrees_with_brute_force;
    solver_models_are_valid;
    incremental_assumptions_sound;
    incremental_rounds_sound;
    ("solver repeated assumptions", `Quick, test_repeated_assumptions);
    buffered_add_equivalent;
    compaction_roundtrip;
    ("arena compaction reclaims", `Quick, test_compaction_reclaims);
    ("solver capacity/reserve", `Quick, test_capacity_reserve);
    ("sanitized dimacs corpus", `Quick, test_sanitized_dimacs_corpus);
    ("sanitized pigeonhole", `Quick, test_sanitized_pigeonhole);
    ("sanitized collection", `Quick, test_sanitized_collect);
    sanitized_solver_agrees_with_brute_force;
    ("dimacs parse", `Quick, test_dimacs_parse);
    ("dimacs roundtrip", `Quick, test_dimacs_roundtrip);
    ("dimacs rejects junk", `Quick, test_dimacs_bad);
    ("dimacs load+solve", `Quick, test_dimacs_load_solve);
  ]
