module Lit = Qxm_sat.Lit
module Solver = Qxm_sat.Solver
module Cnf = Qxm_encode.Cnf
module Amo = Qxm_encode.Amo
module Coupling = Qxm_arch.Coupling
module Permutation = Qxm_arch.Permutation
module Swap_count = Qxm_arch.Swap_count

type instance = {
  arch : Coupling.t;
  num_logical : int;
  cnots : (int * int) array;
  spots : int list;
}

type cost_model = { swap_weight : int; flip_weight : int }

let paper_costs = { swap_weight = 7; flip_weight = 4 }

let validate inst =
  let m = Coupling.num_qubits inst.arch in
  let g = Array.length inst.cnots in
  if inst.num_logical <= 0 then
    invalid_arg "Encoding: no logical qubits";
  if inst.num_logical > m then
    invalid_arg
      (Printf.sprintf "Encoding: %d logical qubits exceed %d physical"
         inst.num_logical m);
  if not (Coupling.is_connected inst.arch) then
    invalid_arg "Encoding: disconnected architecture";
  Array.iter
    (fun (c, t) ->
      if c < 0 || c >= inst.num_logical || t < 0 || t >= inst.num_logical
      then invalid_arg "Encoding: CNOT qubit out of range";
      if c = t then invalid_arg "Encoding: CNOT with control = target")
    inst.cnots;
  let rec check_spots prev = function
    | [] -> ()
    | s :: rest ->
        if s <= prev then invalid_arg "Encoding: spots not ascending";
        if s < 1 || s >= g then invalid_arg "Encoding: spot out of range";
        check_spots s rest
  in
  check_spots 0 inst.spots

type built = {
  instance : instance;
  cnf : Cnf.t;
  table : Swap_count.t;
  seg_of_gate : int array;
  num_segments : int;
  x : Lit.t array array array; (* x.(s).(i).(j) *)
  z : Lit.t array;
  ladders : Lit.t array array; (* ladders.(s - 1): cost ladder of spot s *)
  objective : (int * Lit.t) list;
  symmetry : bool;
}

let segments_of inst =
  let g = Array.length inst.cnots in
  let seg = Array.make (max g 1) 0 in
  let spots = ref inst.spots in
  let current = ref 0 in
  for k = 0 to g - 1 do
    (match !spots with
    | s :: rest when s = k ->
        incr current;
        spots := rest
    | _ -> ());
    seg.(k) <- !current
  done;
  (seg, !current + 1)

(* Upper-bound estimate of the variables [build] allocates, used to
   pre-size the solver before encoding.  Per family: the x blocks and z
   switches are exact; AMO/EO auxiliaries are bounded by the constraint
   arity (true for all three schemes — sequential uses arity-1, commander
   strictly less, pairwise none); coupling adds two selectors per
   (edge, gate); each permutation spot adds its ladder, the movement
   indicators (square regime) and at most one selector per reachable
   permutation.  On top comes the PB circuit over the objective, whose
   weights [build] lists in this order: one switch per gate, then the
   ladder steps spot by spot. *)
let var_capacity_hint ?(costs = paper_costs) ?pb_cap inst =
  match
    validate inst;
    Swap_count.compute_cached inst.arch
  with
  | exception Invalid_argument _ -> 0
  | table ->
      let m = Coupling.num_qubits inst.arch in
      let n = inst.num_logical in
      let g = Array.length inst.cnots in
      let _, nseg = segments_of inst in
      let nedges = List.length (Coupling.edges inst.arch) in
      let nperms = List.length (Swap_count.permutations_with_cost table) in
      let max_sw = Swap_count.max_swaps table in
      let per_spot = max_sw + (m * m) + nperms in
      let weights w k = if w > 0 then List.init k (fun _ -> w) else [] in
      let objective =
        weights costs.flip_weight g
        @ weights costs.swap_weight ((nseg - 1) * max_sw)
      in
      (nseg * m * n) + g
      + (2 * nseg * m * n)
      + (2 * nedges * g)
      + ((nseg - 1) * per_spot)
      + 1
      + Qxm_encode.Pb.output_bound ?cap:pb_cap objective

(* Eq. (1): every logical qubit on exactly one physical qubit; every
   physical qubit holds at most one logical qubit. *)
let constrain_well_defined ~amo cnf x m n =
  Array.iter
    (fun block ->
      for j = 0 to n - 1 do
        Amo.exactly_one ~encoding:amo cnf
          (List.init m (fun i -> block.(i).(j)))
      done;
      for i = 0 to m - 1 do
        Amo.at_most_one ~encoding:amo cnf
          (List.init n (fun j -> block.(i).(j)))
      done)
    x

(* Eq. (2): each CNOT sits on a coupled pair, in either orientation; and
   the z^k trigger of Eq. (4).  The z trigger is restricted to edges whose
   reverse is absent: on a bidirected pair the gate runs natively, so no
   H cost may be charged (the paper's devices are one-directional, where
   both formulations coincide). *)
let constrain_coupling cnf inst x seg z =
  let arch = inst.arch in
  Array.iteri
    (fun k (c, t) ->
      let block = x.(seg.(k)) in
      let options = ref [] in
      List.iter
        (fun (pi, pj) ->
          let native = Cnf.fresh cnf in
          Cnf.add2 cnf (Lit.negate native) block.(pi).(c);
          Cnf.add2 cnf (Lit.negate native) block.(pj).(t);
          options := native :: !options;
          let reversed = Cnf.fresh cnf in
          Cnf.add2 cnf (Lit.negate reversed) block.(pi).(t);
          Cnf.add2 cnf (Lit.negate reversed) block.(pj).(c);
          options := reversed :: !options;
          if not (Coupling.allows arch pj pi) then
            (* control at pj, target at pi: only reachable by switching *)
            Cnf.add3 cnf
              (Lit.negate block.(pi).(t))
              (Lit.negate block.(pj).(c))
              z.(k))
        (Coupling.edges arch);
      Cnf.add cnf !options)
    inst.cnots

(* Cost ladder for one permutation spot: step.(t) is forced whenever the
   applied permutation needs more than t SWAPs. *)
let make_ladder cnf max_swaps =
  let steps = Array.init max_swaps (fun _ -> Cnf.fresh cnf) in
  for t = 0 to max_swaps - 2 do
    Cnf.implies cnf steps.(t + 1) steps.(t)
  done;
  steps

(* Square regime (n = m): movement indicators + one clause per costly
   permutation. *)
let constrain_spot_square cnf table x_prev x_next m steps =
  let move = Array.init m (fun _ -> Array.init m (fun _ -> Cnf.fresh cnf)) in
  for i = 0 to m - 1 do
    for i' = 0 to m - 1 do
      for j = 0 to m - 1 do
        Cnf.add3 cnf
          (Lit.negate x_prev.(i).(j))
          (Lit.negate x_next.(i').(j))
          move.(i).(i')
      done
    done
  done;
  List.iter
    (fun (pi, cost) ->
      if cost > 0 then begin
        let y = Cnf.fresh cnf in
        Cnf.add_begin cnf;
        Cnf.add_lit cnf y;
        Array.iteri
          (fun i target -> Cnf.add_lit cnf (Lit.negate move.(i).(target)))
          pi;
        Cnf.add_end cnf;
        for t = 0 to cost - 1 do
          Cnf.implies cnf y steps.(t)
        done
      end)
    (Swap_count.permutations_with_cost table)

(* General regime (n < m): choose at least one permutation and force it to
   agree with every occupied position's movement (footnote 5). *)
let constrain_spot_general cnf table x_prev x_next m n steps =
  let ys =
    List.map
      (fun (pi, cost) ->
        let y = Cnf.fresh cnf in
        for i = 0 to m - 1 do
          for j = 0 to n - 1 do
            Cnf.add3 cnf (Lit.negate y)
              (Lit.negate x_prev.(i).(j))
              x_next.(Permutation.apply pi i).(j)
          done
        done;
        for t = 0 to cost - 1 do
          Cnf.implies cnf y steps.(t)
        done;
        y)
      (Swap_count.permutations_with_cost table)
  in
  Cnf.add cnf ys

(* Lex-leader symmetry breaking over the initial layout.  Relabelling the
   physical qubits of any solution by a coupling-graph automorphism π
   yields another solution of identical cost (allowed directions, swap
   distances and flips are all preserved), so the solution space is
   closed under the automorphism group.  Constraining the segment-0
   layout vector — row-major over (physical, logical) — to be
   lexicographically ≤ its π-relabelling for each enumerated π keeps the
   lex-least member of every solution orbit while cutting its siblings:
   model-restricting, optimum-preserving.  [lex_leader] states the
   predicate on a concrete layout, [constrain_symmetry] encodes it; both
   compare over the same automorphisms in the same position order.

   Per vector position k with sides b_k = x0(i,j), c_k = x0(π i, j) and
   prefix-equality chain variable a_k ("positions < k agree"):
     ¬a_k ∨ ¬b_k ∨ c_k        (prefix equal → b_k ≤ c_k)
     ¬a_k ∨ ¬b_k ∨ a_{k+1}    (given the ≤ clause, a_k ∧ b_k forces c_k)
     ¬a_k ∨  c_k ∨ a_{k+1}    (given the ≤ clause, a_k ∧ ¬c_k forces ¬b_k)
   Positions with π i = i compare a literal to itself and are skipped. *)
let symmetry_group arch = Qxm_arch.Automorphism.all arch

let lex_leader arch ~num_logical =
  let group = symmetry_group arch in
  let m = Coupling.num_qubits arch in
  fun place ->
    List.for_all
      (fun pi ->
        (* the first position where the two vectors differ must hold
           0 on the layout's side and 1 on the relabelled side *)
        let rec from i j =
          if i = m then true
          else if j = num_logical || pi.(i) = i then from (i + 1) 0
          else
            let b = place.(j) = i and c = place.(j) = pi.(i) in
            if b = c then from i (j + 1) else c
        in
        from 0 0)
      group

let constrain_symmetry cnf arch x0 m n =
  List.iter
    (fun pi ->
      let chain = ref None (* None: the prefix is vacuously equal *) in
      for i = 0 to m - 1 do
        if pi.(i) <> i then
          for j = 0 to n - 1 do
            let b = x0.(i).(j) and c = x0.(pi.(i)).(j) in
            let a' = Cnf.fresh cnf in
            (match !chain with
            | None ->
                Cnf.add2 cnf (Lit.negate b) c;
                Cnf.add2 cnf (Lit.negate b) a';
                Cnf.add2 cnf c a'
            | Some a ->
                Cnf.add3 cnf (Lit.negate a) (Lit.negate b) c;
                Cnf.add3 cnf (Lit.negate a) (Lit.negate b) a';
                Cnf.add3 cnf (Lit.negate a) c a');
            chain := Some a'
          done
      done)
    (symmetry_group arch)

let build ?(amo = Amo.default) ?(costs = paper_costs) ?(symmetry = false) cnf
    inst =
  validate inst;
  if costs.swap_weight < 0 || costs.flip_weight < 0 then
    invalid_arg "Encoding.build: negative cost weight";
  let m = Coupling.num_qubits inst.arch in
  let n = inst.num_logical in
  let g = Array.length inst.cnots in
  let table = Swap_count.compute_cached inst.arch in
  let seg_of_gate, num_segments = segments_of inst in
  let x =
    Array.init num_segments (fun _ ->
        Array.init m (fun _ -> Array.init n (fun _ -> Cnf.fresh cnf)))
  in
  let z = Array.init g (fun _ -> Cnf.fresh cnf) in
  constrain_well_defined ~amo cnf x m n;
  constrain_coupling cnf inst x seg_of_gate z;
  if symmetry then constrain_symmetry cnf inst.arch x.(0) m n;
  let max_sw = Swap_count.max_swaps table in
  let objective = ref [] in
  let ladders = Array.make (num_segments - 1) [||] in
  if costs.flip_weight > 0 then
    Array.iter
      (fun zk -> objective := (costs.flip_weight, zk) :: !objective)
      z;
  for s = 1 to num_segments - 1 do
    let steps = make_ladder cnf max_sw in
    ladders.(s - 1) <- steps;
    (if n = m then constrain_spot_square cnf table x.(s - 1) x.(s) m steps
     else constrain_spot_general cnf table x.(s - 1) x.(s) m n steps);
    if costs.swap_weight > 0 then
      Array.iter
        (fun b -> objective := (costs.swap_weight, b) :: !objective)
        steps
  done;
  {
    instance = inst;
    cnf;
    table;
    seg_of_gate;
    num_segments;
    x;
    z;
    ladders;
    objective = List.rev !objective;
    symmetry;
  }

let objective b = b.objective
let num_segments b = b.num_segments
let symmetry b = b.symmetry

let segment_of_gate b k =
  if k < 0 || k >= Array.length b.seg_of_gate then
    invalid_arg "Encoding.segment_of_gate";
  b.seg_of_gate.(k)

let swap_table b = b.table

let lit_true model l =
  let v = Lit.var l in
  if Lit.sign l then model.(v) else not model.(v)

let mapping_of_model b model =
  let m = Coupling.num_qubits b.instance.arch in
  let n = b.instance.num_logical in
  Array.map
    (fun block ->
      let place = Array.make n (-1) in
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          if lit_true model block.(i).(j) then begin
            if place.(j) <> -1 then
              invalid_arg "Encoding: model places a qubit twice";
            place.(j) <- i
          end
        done
      done;
      Array.iteri
        (fun j p ->
          if p = -1 then
            invalid_arg
              (Printf.sprintf "Encoding: logical qubit %d unplaced" j))
        place;
      place)
    b.x

let permutation_at_spot b model s =
  if s < 1 || s >= b.num_segments then
    invalid_arg "Encoding.permutation_at_spot";
  let maps = mapping_of_model b model in
  let prev = maps.(s - 1) and next = maps.(s) in
  let m = Coupling.num_qubits b.instance.arch in
  let partial = Array.make m (-1) in
  Array.iteri (fun j i -> partial.(i) <- next.(j)) prev;
  (* cheapest reachable permutation extending the partial movement;
     [permutations_with_cost] is in BFS (ascending cost) order. *)
  let consistent pi =
    let ok = ref true in
    Array.iteri
      (fun i target -> if target <> -1 && Permutation.apply pi i <> target then ok := false)
      partial;
    !ok
  in
  match
    List.find_opt
      (fun (pi, _) -> consistent pi)
      (Swap_count.permutations_with_cost b.table)
  with
  | Some (pi, _) -> pi
  | None -> invalid_arg "Encoding: no consistent permutation (disconnected?)"

(* A routing pins the whole objective: its placements fix every x
   block, its flips every z, and the physical movement between two
   consecutive layouts fixes how many ladder steps of that spot are
   true.  Assuming all three makes a consistent routing's model cost
   exactly the routing's cost. *)
let routing_assumptions b ~layouts ~flips =
  let m = Coupling.num_qubits b.instance.arch in
  let n = b.instance.num_logical in
  if
    Array.length layouts <> b.num_segments
    || Array.length flips <> Array.length b.z
    || Array.exists (fun place -> Array.length place <> m) layouts
  then invalid_arg "Encoding.routing_assumptions: routing shape";
  let xs =
    List.concat
      (List.mapi
         (fun s place -> List.init n (fun j -> b.x.(s).(place.(j)).(j)))
         (Array.to_list layouts))
  in
  let zs =
    Array.to_list
      (Array.mapi (fun k zk -> if flips.(k) then zk else Lit.negate zk) b.z)
  in
  let steps =
    List.concat
      (List.mapi
         (fun i ladder ->
           let prev = layouts.(i) and next = layouts.(i + 1) in
           let pi = Array.make (Array.length prev) 0 in
           Array.iteri (fun j p -> pi.(p) <- next.(j)) prev;
           let swaps = Swap_count.swaps b.table pi in
           List.init (Array.length ladder) (fun t ->
               if t < swaps then ladder.(t) else Lit.negate ladder.(t)))
         (Array.to_list b.ladders))
  in
  xs @ zs @ steps

let var_count b = Solver.nvars (Cnf.solver b.cnf)
let clause_count b = Solver.nclauses (Cnf.solver b.cnf)
