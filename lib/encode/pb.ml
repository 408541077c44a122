module Lit = Qxm_sat.Lit
module Metrics = Qxm_obs.Metrics

(* A node holds the attainable partial sums of the literals below it,
   strictly ascending in [sums], with the indicator literal of [sums.(i)]
   at [lits.(i)]. *)
type node = { sums : int array; lits : Lit.t array }

(* [cap]: every sum above it is clamped to [max cap 0 + 1], one output
   standing for "more than [cap]"; [None] when the circuit is exact. *)
type t = { root : node; total : int; cap : int option }

let empty = { sums = [||]; lits = [||] }
let outputs = Metrics.counter "pb.outputs"
let clauses = Metrics.counter "pb.clauses"

(* Number of entries of the ascending array [a] that are [<= b]. *)
let count_le (a : int array) b =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) <= b then lo := mid + 1 else hi := mid
  done;
  !lo

(* Index of [v] in the ascending array [a]; [v] must be present. *)
let index_of a v =
  let i = count_le a v - 1 in
  assert (i >= 0 && a.(i) = v);
  i

module Sums = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* The attainable sums of the union, ascending and without duplicates:
   the sums of [a], of [b], and every pairwise sum, each clamped by
   [clamp].  The dedup table holds one entry per distinct sum, so memory
   is bounded by the number of outputs, never by the magnitude of the
   weights. *)
let union_sums clamp a b =
  let seen = Sums.create (Array.length a + Array.length b) in
  let add v = Sums.replace seen v () in
  Array.iter add a;
  Array.iter add b;
  Array.iter (fun va -> Array.iter (fun vb -> add (clamp (va + vb))) b) a;
  let sums = Array.of_seq (Sums.to_seq_keys seen) in
  Array.sort Int.compare sums;
  sums

(* Clause order: fresh outputs in ascending value order, then the
   implications from [a], then those from [b], then the [a × b] ternary
   clauses row by row.  A pair whose either side already sits at the
   overflow value [top] gets no ternary clause: the implication from that
   side forces the overflow output alone. *)
let merge cnf ~top a b =
  let clamp v = min v top in
  let sums = union_sums clamp a.sums b.sums in
  let lits = Array.map (fun _ -> Cnf.fresh cnf) sums in
  let lit_for v = lits.(index_of sums v) in
  Array.iteri (fun i l -> Cnf.implies cnf l (lit_for a.sums.(i))) a.lits;
  Array.iteri (fun i l -> Cnf.implies cnf l (lit_for b.sums.(i))) b.lits;
  let ternary = ref 0 in
  Array.iteri
    (fun i la ->
      let va = a.sums.(i) in
      if va < top then
        Array.iteri
          (fun j lb ->
            let vb = b.sums.(j) in
            if vb < top then begin
              incr ternary;
              Cnf.add3 cnf (Lit.negate la) (Lit.negate lb)
                (lit_for (clamp (va + vb)))
            end)
          b.lits)
    a.lits;
  Metrics.add outputs (Array.length sums);
  Metrics.add clauses (Array.length a.lits + Array.length b.lits + !ternary);
  { sums; lits }

let build ?cap cnf terms =
  List.iter
    (fun (w, _) ->
      if w <= 0 then invalid_arg "Pb.build: non-positive weight")
    terms;
  let terms = Array.of_list terms in
  (* the one value that stands for every sum above the cap *)
  let top = match cap with Some c -> max c 0 + 1 | None -> max_int in
  (* The root of terms.(lo .. lo + n - 1); the left half takes n / 2. *)
  let rec go lo n =
    if n = 0 then empty
    else if n = 1 then
      let w, l = terms.(lo) in
      { sums = [| min w top |]; lits = [| l |] }
    else
      let h = n / 2 in
      merge cnf ~top (go lo h) (go (lo + h) (n - h))
  in
  let root = go 0 (Array.length terms) in
  { root; total = Array.fold_left (fun acc (w, _) -> acc + w) 0 terms; cap }

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Mirrors [build]'s tree.  A node's values below [top] are distinct
   multiples of the gcd [g] of its weights, at most its weight sum [s];
   above them sits at most the one overflow value. *)
let output_bound ?cap weights =
  let w = Array.of_list weights in
  let top = match cap with Some c -> max c 0 + 1 | None -> max_int in
  let outputs = ref 0 in
  (* (outputs, weight sum, weight gcd) of the node over w.(lo .. lo + n - 1) *)
  let rec go lo n =
    if n = 1 then (1, w.(lo), w.(lo))
    else
      let h = n / 2 in
      let ca, sa, ga = go lo h and cb, sb, gb = go (lo + h) (n - h) in
      let s = sa + sb and g = gcd ga gb in
      let c =
        min (ca + cb + (ca * cb))
          ((min s (top - 1) / g) + if s >= top then 1 else 0)
      in
      outputs := !outputs + c;
      (c, s, g)
  in
  if Array.length w > 0 then ignore (go 0 (Array.length w));
  !outputs

let cap t = t.cap

let values t = Array.to_list t.root.sums
let max_value t = t.total

let tighten t b =
  let k = count_le t.root.sums b in
  if k = 0 then 0 else t.root.sums.(k - 1)

let next_above t b =
  let k = count_le t.root.sums b in
  if k = Array.length t.root.sums then None else Some t.root.sums.(k)

(* Forbid the indicator of every sum strictly above [b].  Above the cap
   the overflow output would stand for sums both above and below [b], so
   such a bound cannot be expressed. *)
let enforce_at_most cnf t b =
  (match t.cap with
  | Some c when b > c ->
      invalid_arg
        (Printf.sprintf "Pb: bound %d is above the circuit's cap %d" b c)
  | _ -> ());
  for i = count_le t.root.sums b to Array.length t.root.lits - 1 do
    Cnf.add cnf [ Lit.negate t.root.lits.(i) ]
  done
