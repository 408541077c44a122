(* Directed-graph isomorphisms and embeddings by plain backtracking:
   assign images for vertices 0, 1, ... in order, pruning on in/out
   degree and on edge consistency with every already-assigned vertex.
   Automorphisms are the isomorphisms of a graph onto itself; an
   embedding relaxes both tests from "equal" to "at most" (every edge of
   the source must land on an edge of the target, not conversely).  The
   coupling maps of the paper's devices have at most 20 qubits and very
   little symmetry beyond edge reversal orbits, so this terminates
   instantly; a node budget guards the pathological case anyway. *)

let node_budget = 200_000

(* Is the edge relation [s] of a source pair matched by the relation [d]
   of its image: equal for an isomorphism, implied for an embedding? *)
let agree ~embed s d = if embed then d || not s else s = d

(* Does [pi] carry the edge relation of [src] onto ([~embed:false]) or
   into ([~embed:true]) that of [dst]? *)
let preserves_edges ~embed src dst pi =
  let m = Coupling.num_qubits src in
  Array.length pi = m
  && Coupling.num_qubits dst = m
  && (let seen = Array.make m false in
      Array.for_all
        (fun v -> v >= 0 && v < m && not seen.(v) && (seen.(v) <- true; true))
        pi)
  &&
  let ok = ref true in
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      let s = Coupling.allows src i j
      and d = Coupling.allows dst pi.(i) pi.(j) in
      if i <> j && not (agree ~embed s d) then ok := false
    done
  done;
  !ok

let is_automorphism cm pi = preserves_edges ~embed:false cm cm pi

let degrees cm =
  let m = Coupling.num_qubits cm in
  let out_deg = Array.make m 0 and in_deg = Array.make m 0 in
  List.iter
    (fun (i, j) ->
      out_deg.(i) <- out_deg.(i) + 1;
      in_deg.(j) <- in_deg.(j) + 1)
    (Coupling.edges cm);
  (out_deg, in_deg)

(* Every edge-preserving bijection from [src] onto [dst] (same qubit
   count) — or, with [~embed:true], every bijection that sends each edge
   of [src] onto an edge of [dst] — in lexicographic order of the image
   array; [accept] sees each one (the array is reused — copy to keep it)
   and returns [false] to stop the search. *)
let search ~embed src dst accept =
  let m = Coupling.num_qubits src in
  let src_out, src_in = degrees src and dst_out, dst_in = degrees dst in
  let fits have need = if embed then have >= need else have = need in
  let pi = Array.make m (-1) in
  let used = Array.make m false in
  let go_on = ref true in
  let nodes = ref 0 in
  let rec extend i =
    if i = m then go_on := accept pi
    else
      for cand = 0 to m - 1 do
        if
          !go_on && !nodes < node_budget
          && (not used.(cand))
          && fits dst_out.(cand) src_out.(i)
          && fits dst_in.(cand) src_in.(i)
        then begin
          incr nodes;
          let consistent = ref true in
          for u = 0 to i - 1 do
            let v = pi.(u) and allows = Coupling.allows in
            if
              not
                (agree ~embed (allows src u i) (allows dst v cand)
                && agree ~embed (allows src i u) (allows dst cand v))
            then consistent := false
          done;
          if !consistent then begin
            pi.(i) <- cand;
            used.(cand) <- true;
            extend (i + 1);
            used.(cand) <- false;
            pi.(i) <- -1
          end
        end
      done
  in
  if Coupling.num_qubits dst = m then extend 0

let all ?(max_count = 64) cm =
  let found = ref [] and nfound = ref 0 in
  if max_count > 0 then
    search ~embed:false cm cm (fun pi ->
        if not (Permutation.is_identity pi) then begin
          found := Array.copy pi :: !found;
          incr nfound
        end;
        !nfound < max_count);
  List.rev !found

(* The first map [search] accepts, kept only if it passes the direct
   edge-relation check. *)
let first ~embed a b =
  let found = ref None in
  search ~embed a b (fun pi ->
      found := Some (Array.copy pi);
      false);
  match !found with
  | Some pi when preserves_edges ~embed a b pi -> Some pi
  | _ -> None

let isomorphism a b =
  if List.length (Coupling.edges a) = List.length (Coupling.edges b) then
    first ~embed:false a b
  else None

let embedding sub host =
  if List.length (Coupling.edges sub) <= List.length (Coupling.edges host)
  then first ~embed:true sub host
  else None
