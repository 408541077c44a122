let rec choose k xs =
  if k = 0 then [ [] ]
  else
    match xs with
    | [] -> []
    | x :: rest ->
        List.map (fun s -> x :: s) (choose (k - 1) rest) @ choose k rest

let all cm n =
  if n < 0 || n > Coupling.num_qubits cm then
    invalid_arg "Subsets.all: bad size";
  choose n (List.init (Coupling.num_qubits cm) Fun.id)

let connected_uncached cm n =
  List.filter (Coupling.subset_connected cm) (all cm n)

(* Memoized on the canonical form of the coupling map (qubit count plus
   the sorted directed edge list) and the subset size.  Entries are
   immutable lists built once; each table is mutex-protected so
   concurrent mapper workers may share it — first writer wins, a lost
   race just recomputes the same value. *)
let memoize compute =
  let cache = Hashtbl.create 16 and lock = Mutex.create () in
  fun cm n ->
    let key = (Coupling.num_qubits cm, Coupling.edges cm, n) in
    Mutex.lock lock;
    match Hashtbl.find_opt cache key with
    | Some v ->
        Mutex.unlock lock;
        v
    | None -> (
        Mutex.unlock lock;
        let v = compute cm n in
        Mutex.lock lock;
        match Hashtbl.find_opt cache key with
        | Some prior ->
            Mutex.unlock lock;
            prior
        | None ->
            Hashtbl.add cache key v;
            Mutex.unlock lock;
            v)

let connected = memoize connected_uncached

(* A relabelling-invariant of the induced graph: edge count and the
   sorted (in, out)-degree multiset.  Only subsets that agree on it can
   be isomorphic, so the backtracker runs inside a bucket. *)
let invariant sub =
  let m = Coupling.num_qubits sub in
  let degs = Array.make m (0, 0) in
  List.iter
    (fun (i, j) ->
      let i_in, i_out = degs.(i) and j_in, j_out = degs.(j) in
      degs.(i) <- (i_in, i_out + 1);
      degs.(j) <- (j_in + 1, j_out))
    (Coupling.edges sub);
  Array.sort compare degs;
  (List.length (Coupling.edges sub), degs)

(* First-seen subset of each class becomes its representative, so the
   representatives keep [connected] order and each is its class's
   lowest-indexed member.  Classes live in per-invariant buckets as
   mutable (representative, induced graph, size) cells. *)
let connected_classes_uncached cm n =
  let buckets = Hashtbl.create 16 in
  let classes =
    List.filter_map
      (fun subset ->
        let sub = fst (Coupling.induce cm subset) in
        let key = invariant sub in
        let bucket = Option.value ~default:[] (Hashtbl.find_opt buckets key) in
        match
          List.find_opt
            (fun (_, rep, _) -> Automorphism.isomorphism rep sub <> None)
            bucket
        with
        | Some (_, _, size) ->
            incr size;
            None
        | None ->
            let cls = (subset, sub, ref 1) in
            Hashtbl.replace buckets key (cls :: bucket);
            Some cls)
      (connected cm n)
  in
  List.map (fun (subset, _, size) -> (subset, !size)) classes

let connected_classes = memoize connected_classes_uncached

(* A class whose induced graph embeds into another's never beats it.
   Only a host with strictly more edges drops a class (with equal counts
   an embedding is an isomorphism its class search missed), so no two
   classes drop each other and the class with the most edges stays. *)
let maximal_classes_uncached cm n =
  let induced =
    List.map
      (fun (subset, _) -> (subset, fst (Coupling.induce cm subset)))
      (connected_classes cm n)
  in
  let edges sub = List.length (Coupling.edges sub) in
  List.filter_map
    (fun (subset, sub) ->
      if
        List.exists
          (fun (_, host) ->
            edges host > edges sub && Automorphism.embedding sub host <> None)
          induced
      then None
      else Some subset)
    induced

let maximal_classes = memoize maximal_classes_uncached

let count_all cm n = List.length (all cm n)
let count_connected cm n = List.length (connected cm n)
