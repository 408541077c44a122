type t = {
  mutable heap : int array; (* heap.(i) = variable at heap position i *)
  mutable size : int; (* positions [0, size) of [heap] are live *)
  mutable index : int array; (* index.(v) = position of v in heap, or -1 *)
}

let create () = { heap = [||]; size = 0; index = [||] }

(* Each variable sits in the heap at most once, so a heap array as long
   as [index] never overflows. *)
let grow t n =
  let old = Array.length t.index in
  if n > old then begin
    let cap = max n (2 * old) in
    let index = Array.make cap (-1) and heap = Array.make cap 0 in
    Array.blit t.index 0 index 0 old;
    Array.blit t.heap 0 heap 0 t.size;
    t.index <- index;
    t.heap <- heap
  end

let in_heap t v = v < Array.length t.index && t.index.(v) >= 0
let is_empty t = t.size = 0
let size t = t.size

(* Both sifts move variable [v] as a hole from position [i] and write it
   once where it stops.  They compare as a swap-based sift does (strict
   [>], the left child unless the right one is strictly greater), so the
   layout is the same after every operation.  Positions stay below
   [size] and variables below [Array.length index]: access is unchecked. *)
let percolate_up t (act : float array) v i =
  let heap = t.heap and index = t.index in
  let key = Array.unsafe_get act v in
  let i = ref i in
  while
    !i > 0
    && key > Array.unsafe_get act (Array.unsafe_get heap ((!i - 1) / 2))
  do
    let p = (!i - 1) / 2 in
    let vp = Array.unsafe_get heap p in
    Array.unsafe_set heap !i vp;
    Array.unsafe_set index vp !i;
    i := p
  done;
  Array.unsafe_set heap !i v;
  Array.unsafe_set index v !i

let percolate_down t (act : float array) v i =
  let heap = t.heap and index = t.index and n = t.size in
  let key = Array.unsafe_get act v in
  let i = ref i and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let c =
        if
          r < n
          && Array.unsafe_get act (Array.unsafe_get heap r)
             > Array.unsafe_get act (Array.unsafe_get heap l)
        then r
        else l
      in
      let vc = Array.unsafe_get heap c in
      if Array.unsafe_get act vc > key then begin
        Array.unsafe_set heap !i vc;
        Array.unsafe_set index vc !i;
        i := c
      end
      else continue := false
    end
  done;
  Array.unsafe_set heap !i v;
  Array.unsafe_set index v !i

let push t v act =
  grow t (v + 1);
  if t.index.(v) < 0 then begin
    t.size <- t.size + 1;
    percolate_up t act v (t.size - 1)
  end

let pop t act =
  if is_empty t then invalid_arg "Heap.pop: empty";
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  t.index.(top) <- -1;
  if t.size > 0 then percolate_down t act t.heap.(t.size) 0;
  top

let decrease t v act =
  if in_heap t v then percolate_up t act v t.index.(v)

let members t = List.init t.size (Array.get t.heap)

let check t act =
  let issues = ref [] in
  let issue fmt =
    Printf.ksprintf (fun m -> issues := m :: !issues) fmt
  in
  let n = t.size and nidx = Array.length t.index in
  for i = 0 to n - 1 do
    let v = t.heap.(i) in
    if v < 0 || v >= nidx then
      issue "heap slot %d holds out-of-range variable %d" i v
    else if t.index.(v) <> i then
      issue "heap slot %d holds variable %d whose index entry is %d" i v
        t.index.(v);
    if v >= 0 && v < Array.length act && i > 0 then begin
      let p = t.heap.((i - 1) / 2) in
      if p >= 0 && p < Array.length act && act.(p) < act.(v) then
        issue
          "heap order violated: parent variable %d (%.3g) below child %d \
           (%.3g)"
          p act.(p) v act.(v)
    end
  done;
  for v = 0 to nidx - 1 do
    let i = t.index.(v) in
    if i >= 0 && (i >= n || t.heap.(i) <> v) then
      issue "index entry for variable %d points at slot %d, which holds %s"
        v i
        (if i >= n then "nothing" else string_of_int t.heap.(i))
  done;
  List.rev !issues
