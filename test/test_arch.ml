(* Tests for the architecture substrate: Coupling, Devices, Permutation,
   Swap_count, Subsets, Paths. *)

open Test_util
module Coupling = Qxm_arch.Coupling
module Devices = Qxm_arch.Devices
module Permutation = Qxm_arch.Permutation
module Swap_count = Qxm_arch.Swap_count
module Subsets = Qxm_arch.Subsets
module Paths = Qxm_arch.Paths
module Automorphism = Qxm_arch.Automorphism

(* -- Coupling ----------------------------------------------------------- *)

let test_qx4_map () =
  (* Fig. 2 / Ex. 2, shifted to 0-based *)
  let cm = Devices.qx4 in
  Alcotest.(check int) "5 qubits" 5 (Coupling.num_qubits cm);
  Alcotest.(check (list (pair int int)))
    "edges"
    [ (1, 0); (2, 0); (2, 1); (3, 2); (3, 4); (4, 2) ]
    (Coupling.edges cm);
  Alcotest.(check bool) "allows 1->0" true (Coupling.allows cm 1 0);
  Alcotest.(check bool) "not 0->1" false (Coupling.allows cm 0 1);
  Alcotest.(check bool) "coupled 0,1" true (Coupling.coupled cm 0 1);
  Alcotest.(check bool) "not coupled 0,3" false (Coupling.coupled cm 0 3);
  Alcotest.(check (list int)) "neighbors of 2" [ 0; 1; 3; 4 ]
    (Coupling.neighbors cm 2);
  Alcotest.(check bool) "connected" true (Coupling.is_connected cm)

let test_coupling_validation () =
  Alcotest.(check bool) "self loop rejected" true
    (try
       ignore (Coupling.create ~num_qubits:2 [ (0, 0) ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "out of range rejected" true
    (try
       ignore (Coupling.create ~num_qubits:2 [ (0, 5) ]);
       false
     with Invalid_argument _ -> true)

let test_triangles_qx4 () =
  Alcotest.(check (list (triple int int int)))
    "two triangles"
    [ (0, 1, 2); (2, 3, 4) ]
    (Coupling.triangles Devices.qx4)

let test_induce () =
  let sub, back = Coupling.induce Devices.qx4 [ 0; 1; 2 ] in
  Alcotest.(check int) "3 qubits" 3 (Coupling.num_qubits sub);
  Alcotest.(check (list (pair int int)))
    "renumbered edges"
    [ (1, 0); (2, 0); (2, 1) ]
    (Coupling.edges sub);
  Alcotest.(check (array int)) "back map" [| 0; 1; 2 |] back;
  let sub2, back2 = Coupling.induce Devices.qx4 [ 2; 3; 4 ] in
  Alcotest.(check (array int)) "back map 2" [| 2; 3; 4 |] back2;
  Alcotest.(check bool) "connected" true (Coupling.is_connected sub2)

let test_subset_connected () =
  let cm = Devices.qx4 in
  Alcotest.(check bool) "0,1,2 connected" true
    (Coupling.subset_connected cm [ 0; 1; 2 ]);
  Alcotest.(check bool) "0,1,3,4 disconnected" false
    (Coupling.subset_connected cm [ 0; 1; 3; 4 ]);
  Alcotest.(check bool) "empty connected" true
    (Coupling.subset_connected cm []);
  Alcotest.(check int) "qx4 is one component" 5
    (Coupling.largest_component cm);
  Alcotest.(check int) "two edges and an isolated qubit" 2
    (Coupling.largest_component
       (Coupling.create ~num_qubits:5 [ (0, 1); (3, 2) ]))

let test_to_dot () =
  let dot = Coupling.to_dot Devices.qx4 in
  Alcotest.(check bool) "digraph" true
    (contains_substring dot "digraph");
  Alcotest.(check bool) "edge" true (contains_substring dot "p1 -> p0")

(* -- Devices ------------------------------------------------------------ *)

let test_device_shapes () =
  Alcotest.(check int) "qx2" 5 (Coupling.num_qubits Devices.qx2);
  Alcotest.(check int) "qx5" 16 (Coupling.num_qubits Devices.qx5);
  Alcotest.(check int) "tokyo" 20 (Coupling.num_qubits Devices.tokyo);
  List.iter
    (fun cm ->
      Alcotest.(check bool) "connected" true (Coupling.is_connected cm))
    [ Devices.qx2; Devices.qx4; Devices.qx5; Devices.tokyo ]

let test_tokyo_bidirectional () =
  let cm = Devices.tokyo in
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) "reverse present" true (Coupling.allows cm b a))
    (Coupling.edges cm)

let test_synthetic_devices () =
  let line = Devices.line 5 in
  Alcotest.(check int) "line edges" 4 (List.length (Coupling.edges line));
  let ring = Devices.ring 5 in
  Alcotest.(check int) "ring edges" 5 (List.length (Coupling.edges ring));
  let grid = Devices.grid ~rows:2 ~cols:3 in
  Alcotest.(check int) "grid qubits" 6 (Coupling.num_qubits grid);
  Alcotest.(check int) "grid edges" 7 (List.length (Coupling.edges grid));
  let star = Devices.star 4 in
  Alcotest.(check int) "star degree" 3 (Coupling.degree star 0)

let test_by_name () =
  Alcotest.(check bool) "qx4" true (Devices.by_name "qx4" <> None);
  Alcotest.(check bool) "line7" true
    (match Devices.by_name "line7" with
    | Some cm -> Coupling.num_qubits cm = 7
    | None -> false);
  Alcotest.(check bool) "unknown" true (Devices.by_name "nope" = None)

let test_all_fully_directed () =
  let cm = Devices.all_fully_directed Devices.qx4 in
  Alcotest.(check bool) "0->1 now allowed" true (Coupling.allows cm 0 1)

(* -- Permutation --------------------------------------------------------- *)

let perm_gen n =
  QCheck2.Gen.(
    let* seed = int_range 0 100000 in
    return
      (let rng = Random.State.make [| seed |] in
       let p = Array.init n Fun.id in
       for i = n - 1 downto 1 do
         let j = Random.State.int rng (i + 1) in
         let tmp = p.(i) in
         p.(i) <- p.(j);
         p.(j) <- tmp
       done;
       p))

let test_identity () =
  Alcotest.(check bool) "id" true
    (Permutation.is_identity (Permutation.identity 5));
  Alcotest.(check bool) "valid" true
    (Permutation.is_valid (Permutation.identity 5));
  Alcotest.(check bool) "invalid" false (Permutation.is_valid [| 0; 0 |])

let perm_inverse_roundtrip =
  qtest ~count:100 "compose p (inverse p) = id" (perm_gen 6) (fun p ->
      Permutation.is_identity (Permutation.compose p (Permutation.inverse p))
      && Permutation.is_identity
           (Permutation.compose (Permutation.inverse p) p))

let perm_rank_roundtrip =
  qtest ~count:200 "unrank (rank p) = p" (perm_gen 5) (fun p ->
      Permutation.unrank 5 (Permutation.rank p) = p)

let test_all_permutations () =
  let perms = Permutation.all 4 in
  Alcotest.(check int) "4! = 24" 24 (List.length perms);
  Alcotest.(check bool) "identity first" true
    (Permutation.is_identity (List.hd perms));
  Alcotest.(check int) "all distinct" 24
    (List.length (List.sort_uniq compare perms))

let test_swap_after () =
  let p = Permutation.identity 3 in
  let p = Permutation.swap_after p 0 1 in
  Alcotest.(check (array int)) "transposition" [| 1; 0; 2 |] p;
  let p = Permutation.swap_after p 1 2 in
  (* content of 0 moved to 1, now to 2 *)
  Alcotest.(check (array int)) "chained" [| 2; 0; 1 |] p

let test_count_transpositions () =
  Alcotest.(check int) "identity 0" 0
    (Permutation.count_transpositions (Permutation.identity 4));
  Alcotest.(check int) "swap 1" 1
    (Permutation.count_transpositions [| 1; 0; 2 |]);
  Alcotest.(check int) "3-cycle 2" 2
    (Permutation.count_transpositions [| 1; 2; 0 |])

let test_pp_cycles () =
  Alcotest.(check string) "id" "id"
    (Format.asprintf "%a" Permutation.pp (Permutation.identity 3));
  Alcotest.(check string) "cycle" "(0 1)"
    (Format.asprintf "%a" Permutation.pp [| 1; 0; 2 |])

(* -- Swap_count ---------------------------------------------------------- *)

let test_swap_count_qx4 () =
  let table = Swap_count.compute Devices.qx4 in
  Alcotest.(check int) "identity free" 0
    (Swap_count.swaps table (Permutation.identity 5));
  (* coupled transposition costs one swap *)
  Alcotest.(check int) "adjacent swap" 1
    (Swap_count.swaps table [| 1; 0; 2; 3; 4 |]);
  (* uncoupled transposition (0,3) costs more than one *)
  Alcotest.(check bool) "far swap > 1" true
    (Swap_count.swaps table [| 3; 1; 2; 0; 4 |] > 1);
  Alcotest.(check int) "120 permutations reachable" 120
    (List.length (Swap_count.permutations_with_cost table))

let swap_sequences_realize_permutation =
  qtest ~count:150 "sequence replay equals the permutation" (perm_gen 5)
    (fun p ->
      let table = Swap_count.compute Devices.qx4 in
      let seq = Swap_count.sequence table p in
      List.length seq = Swap_count.swaps table p
      && List.fold_left
           (fun acc (a, b) -> Permutation.swap_after acc a b)
           (Permutation.identity 5) seq
         = p)

let swap_count_lower_bound =
  qtest ~count:100 "graph swaps >= unrestricted transpositions"
    (perm_gen 5) (fun p ->
      let table = Swap_count.compute Devices.qx4 in
      Swap_count.swaps table p >= Permutation.count_transpositions p)

let test_swap_sequences_use_coupled_pairs () =
  let table = Swap_count.compute Devices.qx4 in
  List.iter
    (fun (p, _) ->
      List.iter
        (fun (a, b) ->
          Alcotest.(check bool) "coupled" true
            (Coupling.coupled Devices.qx4 a b))
        (Swap_count.sequence table p))
    (Swap_count.permutations_with_cost table)

let test_swap_count_line () =
  (* reversing a 3-line needs 3 swaps *)
  let table = Swap_count.compute (Devices.line 3) in
  Alcotest.(check int) "reverse line3" 3 (Swap_count.swaps table [| 2; 1; 0 |])

(* -- Subsets ------------------------------------------------------------- *)

let test_choose () =
  Alcotest.(check int) "C(5,2)" 10
    (List.length (Subsets.choose 2 [ 0; 1; 2; 3; 4 ]));
  Alcotest.(check (list (list int))) "C(3,2) explicit"
    [ [ 0; 1 ]; [ 0; 2 ]; [ 1; 2 ] ]
    (Subsets.choose 2 [ 0; 1; 2 ])

let test_example9 () =
  (* Ex. 9: 4-subsets of QX4 — 5 total, 4 connected (all contain p2) *)
  let cm = Devices.qx4 in
  Alcotest.(check int) "all" 5 (Subsets.count_all cm 4);
  Alcotest.(check int) "connected" 4 (Subsets.count_connected cm 4);
  List.iter
    (fun subset ->
      Alcotest.(check bool) "contains p2" true (List.mem 2 subset))
    (Subsets.connected cm 4)

let subsets_are_connected =
  qtest ~count:30 "every returned subset is connected"
    QCheck2.Gen.(int_range 1 5)
    (fun n ->
      List.for_all
        (Coupling.subset_connected Devices.qx4)
        (Subsets.connected Devices.qx4 n))

(* -- Isomorphism classes ------------------------------------------------- *)

(* Brute-force canonical form of a subset's induced graph: the least
   sorted edge list over every relabelling.  Two subsets are isomorphic
   iff their forms are equal. *)
let canonical_form cm subset =
  let sub = fst (Coupling.induce cm subset) in
  let forms =
    List.map
      (fun pi ->
        List.sort compare
          (List.map (fun (i, j) -> (pi.(i), pi.(j))) (Coupling.edges sub)))
      (Permutation.all (List.length subset))
  in
  List.fold_left min (List.hd forms) forms

(* The brute-force partition of [connected] as (first member, size),
   classes in order of their first member. *)
let brute_classes cm n =
  let classes = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun subset ->
      let form = canonical_form cm subset in
      match Hashtbl.find_opt classes form with
      | Some (first, size) -> Hashtbl.replace classes form (first, size + 1)
      | None ->
          Hashtbl.add classes form (subset, 1);
          order := form :: !order)
    (Subsets.connected cm n);
  List.rev_map (Hashtbl.find classes) !order

let class_devices =
  [
    ("qx4", Devices.qx4, 5);
    ("qx2", Devices.qx2, 5);
    ("ring5", Devices.ring 5, 5);
    ("star5", Devices.star 5, 5);
    ("line5", Devices.line 5, 5);
    ("grid 2x3", Devices.grid ~rows:2 ~cols:3, 6);
    ("qx5", Devices.qx5, 5);
  ]

(* Equal to the brute-force partition, whose classes are keyed by their
   first member in [connected] order: so each representative is also
   its class's lowest-indexed subset. *)
let test_classes_match_brute_force () =
  List.iter
    (fun (name, cm, max_n) ->
      for n = 1 to max_n do
        let label = Printf.sprintf "%s n=%d" name n in
        let classes = Subsets.connected_classes cm n in
        Alcotest.(check (list (pair (list int) int)))
          (label ^ ": partition") (brute_classes cm n) classes;
        Alcotest.(check int)
          (label ^ ": sizes sum to the subsets")
          (Subsets.count_connected cm n)
          (List.fold_left (fun acc (_, k) -> acc + k) 0 classes)
      done)
    class_devices

let test_class_counts () =
  let check name cm n subsets classes =
    let label = Printf.sprintf "%s n=%d" name n in
    Alcotest.(check int) (label ^ " subsets") subsets
      (Subsets.count_connected cm n);
    Alcotest.(check int) (label ^ " classes") classes
      (List.length (Subsets.connected_classes cm n))
  in
  check "qx4" Devices.qx4 3 6 2;
  check "qx4" Devices.qx4 4 4 2;
  check "qx2" Devices.qx2 4 4 1;
  check "qx5" Devices.qx5 4 65 11;
  check "qx5" Devices.qx5 5 104 32;
  let a = Subsets.connected_classes Devices.qx4 3 in
  Alcotest.(check bool) "memoized" true
    (a == Subsets.connected_classes Devices.qx4 3)

(* Brute force: does some relabelling send every edge of [sub] onto an
   edge of [host] (same qubit count)? *)
let brute_embeds sub host =
  List.exists
    (fun pi ->
      List.for_all
        (fun (i, j) -> Coupling.allows host pi.(i) pi.(j))
        (Coupling.edges sub))
    (Permutation.all (Coupling.num_qubits sub))

(* The brute-force partition's representatives that embed into no other
   representative, in [connected] order. *)
let test_maximal_classes_match_brute_force () =
  List.iter
    (fun (name, cm, max_n) ->
      for n = 1 to min 5 max_n do
        let reps =
          List.map
            (fun (subset, _) -> (subset, fst (Coupling.induce cm subset)))
            (brute_classes cm n)
        in
        let maximal =
          List.filter_map
            (fun (subset, sub) ->
              if
                List.exists
                  (fun (other, host) ->
                    other <> subset && brute_embeds sub host)
                  reps
              then None
              else Some subset)
            reps
        in
        Alcotest.(check (list (list int)))
          (Printf.sprintf "%s n=%d: maximal classes" name n)
          maximal
          (Subsets.maximal_classes cm n)
      done)
    class_devices

let test_maximal_class_counts () =
  let check name cm n classes =
    Alcotest.(check int)
      (Printf.sprintf "%s n=%d maximal classes" name n)
      classes
      (List.length (Subsets.maximal_classes cm n))
  in
  (* the chain 3 -> 2 -> 0 embeds into the transitive triangle *)
  Alcotest.(check (list (list int))) "qx4 n=3" [ [ 0; 1; 2 ] ]
    (Subsets.maximal_classes Devices.qx4 3);
  check "qx4" Devices.qx4 4 2;
  check "qx2" Devices.qx2 3 1;
  check "qx5" Devices.qx5 4 7;
  check "qx5" Devices.qx5 5 13;
  check "tokyo" Devices.tokyo 4 1;
  check "tokyo" Devices.tokyo 5 3;
  let a = Subsets.maximal_classes Devices.qx4 4 in
  Alcotest.(check bool) "memoized" true
    (a == Subsets.maximal_classes Devices.qx4 4)

let test_embedding () =
  let graph k edges = Coupling.create ~num_qubits:k edges in
  let embeds sub host =
    match Automorphism.embedding sub host with
    | None -> false
    | Some pi ->
        Alcotest.(check bool) "a permutation" true
          (Permutation.is_valid pi);
        List.iter
          (fun (i, j) ->
            Alcotest.(check bool) "edge carried onto an edge" true
              (Coupling.allows host pi.(i) pi.(j)))
          (Coupling.edges sub);
        true
  in
  let chain = graph 3 [ (0, 1); (1, 2) ]
  and in_star = graph 3 [ (0, 1); (2, 1) ]
  and transitive = graph 3 [ (0, 1); (1, 2); (0, 2) ]
  and cyclic = graph 3 [ (0, 1); (1, 2); (2, 0) ] in
  Alcotest.(check bool) "chain into transitive triangle" true
    (embeds chain transitive);
  Alcotest.(check bool) "in-star not into cyclic triangle" false
    (embeds in_star cyclic);
  Alcotest.(check bool) "in-star into transitive triangle" true
    (embeds in_star transitive);
  Alcotest.(check bool) "triangle not into a chain" false
    (embeds transitive chain);
  (* One undirected 4-cycle, two orientations: only the one holding the
     directed path 3 -> 2 -> 1 -> 0 hosts the 4-chain. *)
  let chain4 = graph 4 [ (0, 1); (1, 2); (2, 3) ] in
  let three_one = graph 4 [ (1, 0); (2, 1); (3, 2); (3, 0) ]
  and two_two = graph 4 [ (1, 0); (2, 1); (2, 3); (3, 0) ] in
  Alcotest.(check bool) "orientation: holds the path" true
    (embeds chain4 three_one);
  Alcotest.(check bool) "orientation: no directed 3-path" false
    (embeds chain4 two_two);
  (* An isomorphism is an embedding, both ways. *)
  let rev = graph 3 [ (1, 0); (2, 1); (0, 2) ] in
  Alcotest.(check bool) "isomorphic" true
    (embeds cyclic rev && embeds rev cyclic);
  (* Equal edge counts, not isomorphic: neither embeds. *)
  Alcotest.(check bool) "chain not into in-star" false (embeds chain in_star);
  Alcotest.(check bool) "in-star not into chain" false (embeds in_star chain);
  Alcotest.(check bool) "3-path not into 2+2 split" false
    (embeds three_one two_two);
  Alcotest.(check bool) "other qubit count" false
    (embeds chain (Devices.line 4))

let test_isomorphism () =
  let path edges = Coupling.create ~num_qubits:3 edges in
  (* 0 -> 1 -> 2 and 2 -> 0 -> 1 are the same directed path *)
  let a = path [ (0, 1); (1, 2) ] and b = path [ (2, 0); (0, 1) ] in
  (match Automorphism.isomorphism a b with
  | None -> Alcotest.fail "relabelled paths are isomorphic"
  | Some pi ->
      List.iter
        (fun (i, j) ->
          Alcotest.(check bool) "edge carried over" true
            (Coupling.allows b pi.(i) pi.(j)))
        (Coupling.edges a));
  (* Same degree sequence — every qubit has in+out degree 1, 2, 1 — but
     0 -> 1 <- 2 is not a directed path. *)
  let c = path [ (0, 1); (2, 1) ] in
  Alcotest.(check bool) "sink is not a path" true
    (Automorphism.isomorphism a c = None);
  (* A directed 3-cycle is isomorphic to its reversal. *)
  let cyc = path [ (0, 1); (1, 2); (2, 0) ] in
  let rev = path [ (1, 0); (2, 1); (0, 2) ] in
  Alcotest.(check bool) "reversed cycle is isomorphic" true
    (Automorphism.isomorphism cyc rev <> None);
  (* Two orientations of the undirected 4-cycle with the same
     (in, out)-degree multiset — one source, one sink, two relays — that
     split it into directed paths of lengths 3 + 1 and 2 + 2: degree
     pruning alone cannot tell them apart. *)
  let square edges = Coupling.create ~num_qubits:4 edges in
  let three_one = square [ (1, 0); (2, 1); (3, 2); (3, 0) ] in
  let two_two = square [ (1, 0); (2, 1); (2, 3); (3, 0) ] in
  Alcotest.(check bool) "same degrees, other directions" true
    (Automorphism.isomorphism three_one two_two = None);
  Alcotest.(check bool) "other qubit count" true
    (Automorphism.isomorphism a (Devices.line 4) = None)

(* -- Paths ---------------------------------------------------------------- *)

let test_paths_qx4 () =
  let paths = Paths.compute Devices.qx4 in
  Alcotest.(check int) "self" 0 (Paths.distance paths 0 0);
  Alcotest.(check int) "adjacent" 1 (Paths.distance paths 0 1);
  Alcotest.(check int) "0 to 3" 2 (Paths.distance paths 0 3);
  Alcotest.(check int) "diameter" 2 (Paths.diameter paths)

let test_cnot_cost () =
  let paths = Paths.compute Devices.qx4 in
  Alcotest.(check int) "native" 1 (Paths.cnot_cost paths ~control:1 ~target:0);
  Alcotest.(check int) "flipped" 5 (Paths.cnot_cost paths ~control:0 ~target:1)

let test_swap_path () =
  let paths = Paths.compute (Devices.line 5) in
  Alcotest.(check (list int)) "path" [ 0; 1; 2; 3 ] (Paths.swap_path paths 0 3)

let paths_triangle_inequality =
  qtest ~count:100 "triangle inequality"
    QCheck2.Gen.(
      let* a = int_range 0 4 in
      let* b = int_range 0 4 in
      let* c = int_range 0 4 in
      return (a, b, c))
    (fun (a, b, c) ->
      let paths = Paths.compute Devices.qx4 in
      Paths.distance paths a c
      <= Paths.distance paths a b + Paths.distance paths b c)

(* -- Automorphism --------------------------------------------------------- *)

let test_is_automorphism () =
  (* A bidirectional 3-line: reversal is the one non-trivial symmetry. *)
  let bidi3 =
    Coupling.create ~num_qubits:3 [ (0, 1); (1, 0); (1, 2); (2, 1) ]
  in
  Alcotest.(check bool) "identity" true
    (Automorphism.is_automorphism bidi3 [| 0; 1; 2 |]);
  Alcotest.(check bool) "reversal" true
    (Automorphism.is_automorphism bidi3 [| 2; 1; 0 |]);
  Alcotest.(check bool) "rotation is not" false
    (Automorphism.is_automorphism bidi3 [| 1; 2; 0 |]);
  (* qx4 is directed: swapping the degree-matched pair 1 and 4 would map
     edge 1->0 onto the absent 4->0, so it is rejected. *)
  Alcotest.(check bool) "qx4 swap (1 4)" false
    (Automorphism.is_automorphism Devices.qx4 [| 0; 4; 2; 3; 1 |]);
  (* Malformed inputs: wrong length, not a permutation. *)
  Alcotest.(check bool) "wrong length" false
    (Automorphism.is_automorphism bidi3 [| 0; 1 |]);
  Alcotest.(check bool) "repeated image" false
    (Automorphism.is_automorphism bidi3 [| 0; 0; 2 |])

let test_automorphisms_qx4 () =
  (* The directed triangles of QX4 break every candidate symmetry. *)
  Alcotest.(check int) "qx4 is rigid" 0
    (List.length (Automorphism.all Devices.qx4))

let test_automorphisms_ring () =
  (* A directed 4-ring admits exactly the three non-identity rotations
     (reflections reverse edge directions and are excluded). *)
  let ring = Devices.ring 4 in
  let auts = Automorphism.all ring in
  Alcotest.(check int) "three rotations" 3 (List.length auts);
  List.iter
    (fun pi ->
      Alcotest.(check bool) "valid automorphism" true
        (Automorphism.is_automorphism ring pi);
      Alcotest.(check bool) "not identity" true
        (Array.exists (fun v -> pi.(v) <> v) (Array.init 4 Fun.id)))
    auts;
  (* Deterministic lexicographic order: the +1 rotation comes first. *)
  Alcotest.(check (array int)) "first is +1 rotation" [| 1; 2; 3; 0 |]
    (List.hd auts);
  (* max_count truncates the enumeration without changing the prefix. *)
  Alcotest.(check int) "max_count 1" 1
    (List.length (Automorphism.all ~max_count:1 ring));
  Alcotest.(check (array int)) "same prefix" (List.hd auts)
    (List.hd (Automorphism.all ~max_count:1 ring))

let test_automorphisms_directed_line () =
  (* Devices.line is one-directional, so even the 2-line is rigid. *)
  Alcotest.(check int) "line3 rigid" 0
    (List.length (Automorphism.all (Devices.line 3)));
  (* The bidirectional closure restores the reversal symmetry. *)
  let bidi = Devices.all_fully_directed (Devices.line 3) in
  let auts = Automorphism.all bidi in
  Alcotest.(check int) "bidirectional line3" 1 (List.length auts);
  Alcotest.(check (array int)) "reversal" [| 2; 1; 0 |] (List.hd auts)

let suite =
  [
    ("qx4 coupling map (Fig. 2)", `Quick, test_qx4_map);
    ("coupling validation", `Quick, test_coupling_validation);
    ("qx4 triangles", `Quick, test_triangles_qx4);
    ("induce", `Quick, test_induce);
    ("subset connectivity", `Quick, test_subset_connected);
    ("to_dot", `Quick, test_to_dot);
    ("device shapes", `Quick, test_device_shapes);
    ("tokyo bidirectional", `Quick, test_tokyo_bidirectional);
    ("synthetic devices", `Quick, test_synthetic_devices);
    ("by_name", `Quick, test_by_name);
    ("all_fully_directed", `Quick, test_all_fully_directed);
    ("permutation identity", `Quick, test_identity);
    perm_inverse_roundtrip;
    perm_rank_roundtrip;
    ("all permutations", `Quick, test_all_permutations);
    ("swap_after", `Quick, test_swap_after);
    ("count transpositions", `Quick, test_count_transpositions);
    ("cycle notation", `Quick, test_pp_cycles);
    ("swap counts on qx4", `Quick, test_swap_count_qx4);
    swap_sequences_realize_permutation;
    swap_count_lower_bound;
    ("sequences use coupled pairs", `Quick,
     test_swap_sequences_use_coupled_pairs);
    ("swap count line3", `Quick, test_swap_count_line);
    ("choose", `Quick, test_choose);
    ("subset pruning (Ex. 9)", `Quick, test_example9);
    subsets_are_connected;
    ("classes match brute force", `Quick, test_classes_match_brute_force);
    ("class counts", `Quick, test_class_counts);
    ("isomorphism", `Quick, test_isomorphism);
    ("embedding", `Quick, test_embedding);
    ("maximal classes match brute force", `Quick,
      test_maximal_classes_match_brute_force);
    ("maximal class counts", `Quick, test_maximal_class_counts);
    ("paths qx4", `Quick, test_paths_qx4);
    ("cnot cost", `Quick, test_cnot_cost);
    ("swap path", `Quick, test_swap_path);
    paths_triangle_inequality;
    ("is_automorphism", `Quick, test_is_automorphism);
    ("qx4 has no automorphisms", `Quick, test_automorphisms_qx4);
    ("ring automorphisms", `Quick, test_automorphisms_ring);
    ("directed line automorphisms", `Quick, test_automorphisms_directed_line);
  ]
