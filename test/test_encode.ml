(* Tests for the CNF construction toolkit: Cnf, Amo, Pb. *)

open Test_util
module Lit = Qxm_sat.Lit
module Solver = Qxm_sat.Solver
module Cnf = Qxm_encode.Cnf
module Amo = Qxm_encode.Amo
module Pb = Qxm_encode.Pb

(* Count models of the solver restricted to the first [n] variables by
   blocking-clause enumeration. *)
let count_models_over solver n =
  let count = ref 0 in
  let continue = ref true in
  while !continue do
    match Solver.solve solver with
    | Solver.Sat ->
        incr count;
        if !count > 4096 then failwith "too many models";
        let m = Solver.model solver in
        let blocking =
          List.init n (fun v ->
              if m.(v) then Lit.neg_of v else Lit.pos v)
        in
        Solver.add_clause solver blocking
    | Solver.Unsat -> continue := false
    | Solver.Unknown -> failwith "unknown"
  done;
  !count

(* -- Tseitin gates ---------------------------------------------------- *)

let check_gate_table name build table () =
  (* [build cnf a b] returns the output literal; [table] gives expected
     output for each input pair. *)
  List.iter
    (fun (va, vb, expected) ->
      let s = Solver.create () in
      let cnf = Cnf.create s in
      let a = Cnf.fresh cnf and b = Cnf.fresh cnf in
      let y = build cnf a b in
      Cnf.add cnf [ (if va then a else Lit.negate a) ];
      Cnf.add cnf [ (if vb then b else Lit.negate b) ];
      match Solver.solve s with
      | Solver.Sat ->
          Alcotest.(check bool)
            (Printf.sprintf "%s(%b,%b)" name va vb)
            expected
            (Solver.value s y)
      | _ -> Alcotest.fail "gate instance unsat")
    table

let and_table =
  [ (false, false, false); (false, true, false); (true, false, false);
    (true, true, true) ]

let or_table =
  [ (false, false, false); (false, true, true); (true, false, true);
    (true, true, true) ]

let xor_table =
  [ (false, false, false); (false, true, true); (true, false, true);
    (true, true, false) ]

let iff_table =
  [ (false, false, true); (false, true, false); (true, false, false);
    (true, true, true) ]

let test_consts () =
  let s = Solver.create () in
  let cnf = Cnf.create s in
  let t = Cnf.true_ cnf and f = Cnf.false_ cnf in
  Alcotest.(check bool) "solves" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "true" true (Solver.value s t);
  Alcotest.(check bool) "false" false (Solver.value s f);
  Alcotest.(check bool) "shared" true (Cnf.true_ cnf = t)

let test_empty_and_or () =
  let s = Solver.create () in
  let cnf = Cnf.create s in
  let a = Cnf.and_ cnf [] and o = Cnf.or_ cnf [] in
  Alcotest.(check bool) "solves" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "empty and = true" true (Solver.value s a);
  Alcotest.(check bool) "empty or = false" false (Solver.value s o)

let big_and_correct =
  qtest ~count:100 "n-ary and equals conjunction"
    QCheck2.Gen.(list_size (int_range 1 8) bool)
    (fun inputs ->
      let s = Solver.create () in
      let cnf = Cnf.create s in
      let lits = List.map (fun _ -> Cnf.fresh cnf) inputs in
      let y = Cnf.and_ cnf lits in
      List.iter2
        (fun l v -> Cnf.add cnf [ (if v then l else Lit.negate l) ])
        lits inputs;
      Solver.solve s = Solver.Sat
      && Solver.value s y = List.for_all Fun.id inputs)

(* -- AMO / exactly-one ------------------------------------------------ *)

let amo_model_count encoding n expected_eo () =
  (* over n free inputs, exactly-one must leave exactly n models *)
  let s = Solver.create () in
  let cnf = Cnf.create s in
  let lits = List.init n (fun _ -> Cnf.fresh cnf) in
  Amo.exactly_one ~encoding cnf lits;
  Alcotest.(check int)
    (Printf.sprintf "exactly-one over %d" n)
    expected_eo
    (count_models_over s n)

let amo_blocks_pairs encoding =
  qtest ~count:60
    (Printf.sprintf "amo(%s) blocks every 2-subset"
       (match encoding with
       | Amo.Pairwise -> "pairwise"
       | Amo.Sequential -> "sequential"
       | Amo.Commander -> "commander"))
    QCheck2.Gen.(int_range 2 9)
    (fun n ->
      let s = Solver.create () in
      let cnf = Cnf.create s in
      let lits = List.init n (fun _ -> Cnf.fresh cnf) in
      Amo.at_most_one ~encoding cnf lits;
      (* forcing any two of them true must be unsat *)
      let l0 = List.nth lits 0 and l1 = List.nth lits (n - 1) in
      Solver.solve ~assumptions:[ l0; l1 ] s = Solver.Unsat
      && Solver.solve ~assumptions:[ l0 ] s = Solver.Sat)

(* -- degenerate sizes -------------------------------------------------- *)

let test_amo_degenerate () =
  List.iter
    (fun encoding ->
      let s = Solver.create () in
      let cnf = Cnf.create s in
      Amo.at_most_one ~encoding cnf [];
      let l = Cnf.fresh cnf in
      Amo.at_most_one ~encoding cnf [ l ];
      Alcotest.(check int) "no clauses for 0/1 inputs" 0 (Solver.nclauses s);
      Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat))
    [ Amo.Pairwise; Amo.Sequential; Amo.Commander ]

let test_exactly_one_degenerate () =
  (* exactly-one over nothing is a contradiction — but a declared one,
     not a stray empty clause *)
  let s = Solver.create () in
  let cnf = Cnf.create s in
  Amo.exactly_one cnf [];
  Alcotest.(check bool) "eo [] unsat" true (Solver.solve s = Solver.Unsat);
  Alcotest.(check int) "declared, not flagged" 0 (Cnf.empty_clauses cnf);
  (* over a single literal it just forces it *)
  let s = Solver.create () in
  let cnf = Cnf.create s in
  let l = Cnf.fresh cnf in
  Amo.exactly_one cnf [ l ];
  Alcotest.(check bool) "eo [l] sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "l forced" true (Solver.value s l)

let test_cnf_add_normalizes () =
  let s = Solver.create () in
  let cnf = Cnf.create s in
  let a = Cnf.fresh cnf in
  Cnf.add cnf [ a; a; a ];
  Alcotest.(check bool) "duplicates collapse" true
    (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "a forced" true (Solver.value s a);
  Cnf.add cnf [];
  Alcotest.(check int) "empty clause flagged" 1 (Cnf.empty_clauses cnf);
  Alcotest.(check bool) "and still unsatisfiable" true
    (Solver.solve s = Solver.Unsat)

(* -- Generalized totalizer (Pb) ---------------------------------------- *)

(* With unit weights the generalized totalizer is a cardinality
   constraint. *)
let pb_unit_weights_count =
  qtest ~count:60 "at_most k leaves sum(C(n,i), i<=k) models"
    QCheck2.Gen.(pair (int_range 1 7) (int_range 0 7))
    (fun (n, k) ->
      let k = min k n in
      let s = Solver.create () in
      let cnf = Cnf.create s in
      let lits = List.init n (fun _ -> Cnf.fresh cnf) in
      let pb = Pb.build cnf (List.map (fun l -> (1, l)) lits) in
      Pb.enforce_at_most cnf pb k;
      let expected =
        let rec binom n r =
          if r = 0 || r = n then 1 else binom (n - 1) (r - 1) + binom (n - 1) r
        in
        List.fold_left (fun acc i -> acc + binom n i) 0
          (List.init (k + 1) Fun.id)
      in
      count_models_over s n = expected)

let weighted_gen =
  QCheck2.Gen.(
    list_size (int_range 1 7) (pair (int_range 1 9) bool))

let pb_bound_sound =
  qtest ~count:150 "pb enforce_at_most forbids exactly sums > b"
    QCheck2.Gen.(pair weighted_gen (int_range 0 40))
    (fun (terms, bound) ->
      let s = Solver.create () in
      let cnf = Cnf.create s in
      let weighted =
        List.map (fun (w, _) -> (w, Cnf.fresh cnf)) terms
      in
      let pb = Pb.build cnf weighted in
      Pb.enforce_at_most cnf pb bound;
      (* force the chosen input pattern *)
      List.iter2
        (fun (_, l) (_, v) ->
          Cnf.add cnf [ (if v then l else Lit.negate l) ])
        weighted terms;
      let sum =
        List.fold_left (fun acc (w, v) -> if v then acc + w else acc) 0 terms
      in
      let sat = Solver.solve s = Solver.Sat in
      if sum <= bound then sat else not sat)

let pb_values_are_subset_sums =
  qtest ~count:100 "pb values = attainable subset sums"
    weighted_gen
    (fun terms ->
      let s = Solver.create () in
      let cnf = Cnf.create s in
      let weighted = List.map (fun (w, _) -> (w, Cnf.fresh cnf)) terms in
      let pb = Pb.build cnf weighted in
      let weights = List.map fst terms in
      let rec sums = function
        | [] -> [ 0 ]
        | w :: rest ->
            let s = sums rest in
            List.sort_uniq compare (s @ List.map (fun x -> x + w) s)
      in
      let expected = List.filter (fun v -> v > 0) (sums weights) in
      Pb.values pb = expected)

let test_pb_tighten () =
  let s = Solver.create () in
  let cnf = Cnf.create s in
  let terms = [ (4, Cnf.fresh cnf); (7, Cnf.fresh cnf) ] in
  let pb = Pb.build cnf terms in
  Alcotest.(check (list int)) "values" [ 4; 7; 11 ] (Pb.values pb);
  Alcotest.(check int) "tighten 10" 7 (Pb.tighten pb 10);
  Alcotest.(check int) "tighten 3" 0 (Pb.tighten pb 3);
  Alcotest.(check int) "max" 11 (Pb.max_value pb);
  Alcotest.(check (option int)) "next_above 7" (Some 11) (Pb.next_above pb 7);
  Alcotest.(check (option int)) "next_above 11" None (Pb.next_above pb 11)

(* The list-based generalized totalizer that [Pb] replaced, kept verbatim
   as the reference for its clause stream: nodes are ascending
   association lists and every output literal is found by [List.assoc]. *)
module Pb_reference = struct
  type node = (int * Lit.t) list

  module IntMap = Map.Make (Int)

  let merge cnf (a : node) (b : node) : node =
    (* Attainable sums of the union: values of a, of b, and pairwise sums. *)
    let add_value acc v = if IntMap.mem v acc then acc else IntMap.add v () acc in
    let values = IntMap.empty in
    let values = List.fold_left (fun m (v, _) -> add_value m v) values a in
    let values = List.fold_left (fun m (v, _) -> add_value m v) values b in
    let values =
      List.fold_left
        (fun m (va, _) ->
          List.fold_left (fun m (vb, _) -> add_value m (va + vb)) m b)
        values a
    in
    let out =
      IntMap.fold (fun v () acc -> (v, Cnf.fresh cnf) :: acc) values []
      |> List.sort (fun (v1, _) (v2, _) -> compare v1 v2)
    in
    let lit_for v = List.assoc v out in
    List.iter (fun (v, l) -> Cnf.implies cnf l (lit_for v)) a;
    List.iter (fun (v, l) -> Cnf.implies cnf l (lit_for v)) b;
    List.iter
      (fun (va, la) ->
        List.iter
          (fun (vb, lb) ->
            Cnf.add3 cnf (Lit.negate la) (Lit.negate lb) (lit_for (va + vb)))
          b)
      a;
    out

  let build cnf terms : node =
    let rec go = function
      | [] -> []
      | [ (w, l) ] -> [ (w, l) ]
      | ls ->
          let n = List.length ls in
          let rec split i acc = function
            | rest when i = 0 -> (List.rev acc, rest)
            | x :: rest -> split (i - 1) (x :: acc) rest
            | [] -> (List.rev acc, [])
          in
          let left, right = split (n / 2) [] ls in
          merge cnf (go left) (go right)
    in
    go terms

  let values root = List.map fst root

  let tighten root b =
    List.fold_left (fun acc v -> if v <= b then max acc v else acc) 0
      (values root)

  let next_above root b =
    List.fold_left
      (fun acc v ->
        if v > b then
          match acc with Some a -> Some (min a v) | None -> Some v
        else acc)
      None (values root)

  (* the negated outputs of every sum above [b] *)
  let at_most root b =
    List.filter_map
      (fun (v, l) -> if v > b then Some (Lit.negate l) else None)
      root
end

(* Paper weights {4, 7} with a few random weights in 1..1000 mixed in.
   Random weights are capped by the term count so that the number of
   attainable sums — and with it the reference's quadratic lookups —
   stays small enough for a quick test. *)
let pb_terms_gen =
  let open QCheck2.Gen in
  let* n = int_range 1 80 in
  let* paper = list_repeat n (oneofl [ 4; 7 ]) in
  let* r = int_range 0 (if n <= 12 then n else if n <= 40 then 3 else 1) in
  let* random = list_repeat r (pair (int_range 0 (n - 1)) (int_range 1 1000)) in
  return
    (List.mapi
       (fun i w -> Option.value (List.assoc_opt i random) ~default:w)
       paper)

(* Encode [weights] over fresh inputs on a new solver and record the
   [Ev_fresh]/[Ev_clause] stream of [build] alone; the context is
   returned for later clauses. *)
let pb_stream build weights =
  let cnf = Cnf.create (Solver.create ()) in
  let terms = List.map (fun w -> (w, Cnf.fresh cnf)) weights in
  let events = ref [] in
  Cnf.set_tap cnf
    (Some
       (function
       | (Cnf.Ev_fresh _ | Cnf.Ev_clause _) as ev -> events := ev :: !events
       | _ -> ()));
  let result = build cnf terms in
  Cnf.set_tap cnf None;
  (List.rev !events, result, cnf)

(* The clauses [Pb.enforce_at_most cnf pb b] adds, as given. *)
let enforced_clauses cnf pb b =
  let clauses = ref [] in
  Cnf.set_tap cnf
    (Some (function Cnf.Ev_clause c -> clauses := c :: !clauses | _ -> ()));
  Pb.enforce_at_most cnf pb b;
  Cnf.set_tap cnf None;
  List.rev !clauses

let pb_matches_reference =
  qtest ~count:25 "pb clause stream = list-based reference"
    QCheck2.Gen.(pair pb_terms_gen (int_range (-5) 1000))
    (fun (weights, probe) ->
      let stream, pb, cnf = pb_stream Pb.build weights in
      let ref_stream, root, _ = pb_stream Pb_reference.build weights in
      let values = Pb_reference.values root in
      (* Probe around about 16 of the sums, evenly spread, and the ends. *)
      let stride = max 1 (List.length values / 16) in
      let bounds =
        probe :: -1 :: 0 :: Pb.max_value pb + 1
        :: List.concat
             (List.filteri
                (fun i _ -> i mod stride = 0)
                (List.map (fun v -> [ v - 1; v; v + 1 ]) values))
      in
      stream = ref_stream
      && Pb.values pb = values
      && List.for_all
           (fun b ->
             Pb.tighten pb b = Pb_reference.tighten root b
             && Pb.next_above pb b = Pb_reference.next_above root b
             && enforced_clauses cnf pb b
                = List.map (fun l -> [ l ]) (Pb_reference.at_most root b))
           bounds)

(* Capped circuits: a random weighted objective (at most 10 terms,
   weights 1-9) with a fixed input pattern, a random cap >= -1 and a
   bound b <= cap. *)
let capped_gen =
  let open QCheck2.Gen in
  let* terms = list_size (int_range 1 10) (pair (int_range 1 9) bool) in
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 terms in
  let* cap = int_range (-1) (total + 2) in
  let* b = int_range (-1) cap in
  return (terms, cap, b)

let pattern_sum terms =
  List.fold_left (fun acc (w, v) -> if v then acc + w else acc) 0 terms

(* A negative bound admits only the empty sum, as on the uncapped
   circuit. *)
let pb_capped_sound =
  qtest ~count:300 "capped pb enforce_at_most forbids exactly sums > b"
    capped_gen
    (fun (terms, cap, bound) ->
      let s = Solver.create () in
      let cnf = Cnf.create s in
      let weighted = List.map (fun (w, _) -> (w, Cnf.fresh cnf)) terms in
      let pb = Pb.build ~cap cnf weighted in
      Pb.enforce_at_most cnf pb bound;
      List.iter2
        (fun (_, l) (_, v) -> Cnf.add cnf [ (if v then l else Lit.negate l) ])
        weighted terms;
      Solver.solve s = Solver.Sat = (pattern_sum terms <= max bound 0))

(* Up to its cap a capped circuit answers like the uncapped one over the
   same inputs: the same [tighten], a [next_above] never past the true
   one (and equal to it up to the cap), an enforced bound that admits the
   same input patterns — and it never emits a longer stream. *)
let pb_capped_agrees =
  qtest ~count:200 "capped pb agrees with the uncapped circuit"
    capped_gen
    (fun (terms, cap, bound) ->
      let s = Solver.create () in
      let cnf = Cnf.create s in
      let weighted = List.map (fun (w, _) -> (w, Cnf.fresh cnf)) terms in
      let capped = Pb.build ~cap cnf weighted in
      let exact = Pb.build cnf weighted in
      (* whether the input pattern survives [b] enforced on a fresh
         copy of the circuit [build] makes *)
      let admits build =
        let s = Solver.create () in
        let cnf = Cnf.create s in
        let weighted = List.map (fun (w, _) -> (w, Cnf.fresh cnf)) terms in
        Pb.enforce_at_most cnf (build cnf weighted) bound;
        List.iter2
          (fun (_, l) (_, v) -> Cnf.add cnf [ (if v then l else Lit.negate l) ])
          weighted terms;
        Solver.solve s = Solver.Sat
      in
      let next_ok =
        match (Pb.next_above capped bound, Pb.next_above exact bound) with
        | None, None -> true
        | Some v, Some v' -> if v' <= cap then v = v' else v <= v'
        | _ -> false
      in
      let weights = List.map fst terms in
      let stream, _, _ = pb_stream (fun cnf t -> Pb.build ~cap cnf t) weights in
      let exact_stream, _, _ = pb_stream Pb.build weights in
      Pb.tighten capped bound = Pb.tighten exact bound
      && next_ok
      && admits (Pb.build ~cap) = admits (fun cnf t -> Pb.build cnf t)
      && List.length stream <= List.length exact_stream)

let test_pb_capped () =
  let s = Solver.create () in
  let cnf = Cnf.create s in
  let terms = [ (4, Cnf.fresh cnf); (7, Cnf.fresh cnf) ] in
  let pb = Pb.build ~cap:5 cnf terms in
  Alcotest.(check (option int)) "cap" (Some 5) (Pb.cap pb);
  Alcotest.(check (list int)) "7 and 11 share the overflow" [ 4; 6 ]
    (Pb.values pb);
  Alcotest.(check int) "tighten 5" 4 (Pb.tighten pb 5);
  Alcotest.(check (option int)) "next_above 4 is the overflow" (Some 6)
    (Pb.next_above pb 4);
  Alcotest.(check int) "max" 11 (Pb.max_value pb);
  Alcotest.check_raises "bound above the cap"
    (Invalid_argument "Pb: bound 6 is above the circuit's cap 5") (fun () ->
      Pb.enforce_at_most cnf pb 6)

let test_pb_rejects_bad_weight () =
  let s = Solver.create () in
  let cnf = Cnf.create s in
  Alcotest.check_raises "weight 0"
    (Invalid_argument "Pb.build: non-positive weight") (fun () ->
      ignore (Pb.build cnf [ (0, Cnf.fresh cnf) ]))

let suite =
  [
    ("tseitin and", `Quick, check_gate_table "and"
       (fun cnf a b -> Cnf.and_ cnf [ a; b ]) and_table);
    ("tseitin or", `Quick, check_gate_table "or"
       (fun cnf a b -> Cnf.or_ cnf [ a; b ]) or_table);
    ("tseitin xor", `Quick, check_gate_table "xor" Cnf.xor_ xor_table);
    ("tseitin iff", `Quick, check_gate_table "iff" Cnf.iff iff_table);
    ("constants", `Quick, test_consts);
    ("empty and/or", `Quick, test_empty_and_or);
    big_and_correct;
    ("exactly-one pairwise n=4", `Quick,
     amo_model_count Amo.Pairwise 4 4);
    ("exactly-one sequential n=5", `Quick,
     amo_model_count Amo.Sequential 5 5);
    ("exactly-one commander n=7", `Quick,
     amo_model_count Amo.Commander 7 7);
    ("exactly-one sequential n=1", `Quick,
     amo_model_count Amo.Sequential 1 1);
    amo_blocks_pairs Amo.Pairwise;
    amo_blocks_pairs Amo.Sequential;
    amo_blocks_pairs Amo.Commander;
    ("amo degenerate sizes", `Quick, test_amo_degenerate);
    ("exactly-one degenerate sizes", `Quick, test_exactly_one_degenerate);
    ("cnf add normalizes", `Quick, test_cnf_add_normalizes);
    pb_unit_weights_count;
    pb_bound_sound;
    pb_values_are_subset_sums;
    pb_matches_reference;
    ("pb tighten/values", `Quick, test_pb_tighten);
    pb_capped_sound;
    pb_capped_agrees;
    ("pb capped values", `Quick, test_pb_capped);
    ("pb rejects bad weight", `Quick, test_pb_rejects_bad_weight);
  ]
