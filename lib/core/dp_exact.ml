module Coupling = Qxm_arch.Coupling
module Permutation = Qxm_arch.Permutation

type routing = { cost : int; layouts : int array array; flips : bool array }

let max_qubits = 8

(* Per-segment back-pointer tables are the DP's only storage that grows
   with the circuit: segments × m! ints, capped here. *)
let max_cells = 1 lsl 22

let rec factorial k = if k <= 1 then 1 else k * factorial (k - 1)

let segment_count (inst : Encoding.instance) = List.length inst.spots + 1

let tractable (inst : Encoding.instance) =
  let m = Coupling.num_qubits inst.arch in
  m <= max_qubits && segment_count inst * factorial m <= max_cells

let inf = max_int

let solve ?(costs = Encoding.paper_costs) ?(symmetry = false)
    (inst : Encoding.instance) =
  Encoding.validate inst;
  if not (tractable inst) then invalid_arg "Dp_exact.solve: too many layouts";
  let arch = inst.arch in
  let m = Coupling.num_qubits arch in
  let n = inst.num_logical in
  let cnots = inst.cnots in
  let g = Array.length cnots in
  let size = factorial m in
  (* Layout r is the content vector [Permutation.unrank m r] (physical p
     holds logical content.(p); contents >= n are dummies); [pos] is its
     inverse, row-major: pos.(r*m + j) = physical qubit of logical j. *)
  let pos = Array.make (size * m) 0 in
  let edges = Array.of_list (Coupling.undirected_edges arch) in
  let ne = Array.length edges in
  let next = Array.make (size * ne) 0 in
  for r = 0 to size - 1 do
    let content = Permutation.unrank m r in
    Array.iteri (fun p j -> pos.((r * m) + j) <- p) content;
    Array.iteri
      (fun e (a, b) ->
        let c = Array.copy content in
        c.(a) <- content.(b);
        c.(b) <- content.(a);
        next.((r * ne) + e) <- Permutation.rank c)
      edges
  done;
  (* CNOT cost on a physical (control, target) pair *)
  let pair = Array.make (m * m) inf in
  for pc = 0 to m - 1 do
    for pt = 0 to m - 1 do
      if Coupling.allows arch pc pt then pair.((pc * m) + pt) <- 0
      else if Coupling.allows arch pt pc then
        pair.((pc * m) + pt) <- costs.flip_weight
    done
  done;
  let gate_cost r (c, t) = pair.((pos.((r * m) + c) * m) + pos.((r * m) + t)) in
  let nseg = segment_count inst in
  let seg_start = Array.of_list (0 :: inst.spots) in
  let seg_end s = if s + 1 < nseg then seg_start.(s + 1) else g in
  (* Multi-source shortest paths over the Cayley graph of single-SWAP
     moves, every edge weighing [w = swap_weight]: [dist'(r) = min_s
     dist(s) + w·swaps(s → r)], with [src.(r)] the minimizing source.  A
     bucket queue with one edge weight degenerates into two sorted
     queues: the sources, sorted once, and a FIFO of relaxed layouts,
     whose keys never decrease because each is its parent's key plus
     [w].  Popping the smaller head settles layouts in key order, as
     Dijkstra does; ties go to the source, which then keeps its layout.
     Each settled layout pushes at most one FIFO entry per edge. *)
  let w = costs.swap_weight in
  let qkey = Array.make (size * ne) 0 in
  let qr = Array.make (size * ne) 0 in
  let qo = Array.make (size * ne) 0 in
  let relax dist =
    let settled = Array.make size inf in
    let src = Array.make size (-1) in
    let sources =
      let buf = ref [] in
      Array.iteri (fun r d -> if d < inf then buf := (d * size) + r :: !buf) dist;
      let a = Array.of_list !buf in
      Array.sort Int.compare a;
      a
    in
    let best = Array.copy dist in
    let qhead = ref 0 and qtail = ref 0 in
    let si = ref 0 in
    let nsrc = Array.length sources in
    while !si < nsrc || !qhead < !qtail do
      let from_sources =
        !si < nsrc && (!qhead = !qtail || sources.(!si) / size <= qkey.(!qhead))
      in
      let key, r, origin =
        if from_sources then begin
          let packed = sources.(!si) in
          incr si;
          (packed / size, packed mod size, packed mod size)
        end
        else begin
          let h = !qhead in
          incr qhead;
          (qkey.(h), qr.(h), qo.(h))
        end
      in
      if settled.(r) = inf then begin
        settled.(r) <- key;
        src.(r) <- origin;
        for e = 0 to ne - 1 do
          let r' = next.((r * ne) + e) in
          if settled.(r') = inf && key + w < best.(r') then begin
            best.(r') <- key + w;
            qkey.(!qtail) <- key + w;
            qr.(!qtail) <- r';
            qo.(!qtail) <- origin;
            incr qtail
          end
        done
      end
    done;
    (settled, src)
  in
  let add_segment s dist =
    for r = 0 to size - 1 do
      let k = ref seg_start.(s) in
      while dist.(r) < inf && !k < seg_end s do
        let c = gate_cost r cnots.(!k) in
        dist.(r) <- (if c = inf then inf else dist.(r) + c);
        incr k
      done
    done
  in
  let admissible =
    if symmetry then Encoding.lex_leader arch ~num_logical:n
    else fun _ -> true
  in
  let dist =
    ref
      (Array.init size (fun r ->
           if admissible (Array.sub pos (r * m) m) then 0 else inf))
  in
  add_segment 0 !dist;
  let srcs = Array.make nseg [||] in
  for s = 1 to nseg - 1 do
    let settled, src = relax !dist in
    add_segment s settled;
    srcs.(s) <- src;
    dist := settled
  done;
  let cost = Array.fold_left min inf !dist in
  if cost = inf then None
  else begin
    let chosen = Array.make nseg 0 in
    let last = ref (-1) in
    Array.iteri (fun r d -> if !last < 0 && d = cost then last := r) !dist;
    chosen.(nseg - 1) <- !last;
    for s = nseg - 1 downto 1 do
      chosen.(s - 1) <- srcs.(s).(chosen.(s))
    done;
    let layouts = Array.map (fun r -> Array.sub pos (r * m) m) chosen in
    let flips = Array.make g false in
    for s = 0 to nseg - 1 do
      for k = seg_start.(s) to seg_end s - 1 do
        let c, t = cnots.(k) in
        flips.(k) <- not (Coupling.allows arch layouts.(s).(c) layouts.(s).(t))
      done
    done;
    Some { cost; layouts; flips }
  end
