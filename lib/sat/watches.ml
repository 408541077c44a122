type t = {
  mutable pool : int array;
  mutable top : int;
  mutable off : int array;
  mutable len : int array;
  mutable cap : int array;
  free : int array;
}

let min_cap = 4

let create ?(capacity = 0) () =
  {
    pool = Array.make (2 * max min_cap capacity) 0;
    top = 0;
    off = [||];
    len = [||];
    cap = [||];
    free = Array.make Sys.int_size (-1);
  }

let grow t n =
  if n > Array.length t.off then begin
    let n = max n (2 * Array.length t.off) in
    let extend a =
      let a' = Array.make n 0 in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    t.off <- extend t.off;
    t.len <- extend t.len;
    t.cap <- extend t.cap
  end

let lists t = Array.length t.off

(* Size class of a slot of [c] pairs: [c = min_cap lsl class]. *)
let size_class c =
  let rec go c k = if c <= min_cap then k else go (c lsr 1) (k + 1) in
  go c 0

(* A free slot of [c] pairs if its class has one, else fresh words at
   [top], doubling the pool until they fit. *)
let alloc t c =
  let k = size_class c in
  let slot = t.free.(k) in
  if slot >= 0 then t.free.(k) <- t.pool.(slot)
  else begin
    let n = ref (Array.length t.pool) in
    while t.top + (2 * c) > !n do
      n := 2 * !n
    done;
    if !n > Array.length t.pool then begin
      let pool = Array.make !n 0 in
      Array.blit t.pool 0 pool 0 t.top;
      t.pool <- pool
    end;
    t.top <- t.top + (2 * c)
  end;
  if slot >= 0 then slot else t.top - (2 * c)

let push t l a b =
  let n = t.len.(l) in
  if n = t.cap.(l) then begin
    let c = max min_cap (2 * n) in
    let slot = alloc t c in
    if n > 0 then begin
      let old = t.off.(l) and k = size_class n in
      Array.blit t.pool old t.pool slot (2 * n);
      t.pool.(old) <- t.free.(k);
      t.free.(k) <- old
    end;
    t.off.(l) <- slot;
    t.cap.(l) <- c
  end;
  let i = t.off.(l) + (2 * n) in
  t.pool.(i) <- a;
  t.pool.(i + 1) <- b;
  t.len.(l) <- n + 1

let shrink t l n =
  if n < 0 || n > t.len.(l) then invalid_arg "Watches.shrink";
  t.len.(l) <- n

let iter t l f =
  let o = t.off.(l) in
  for i = 0 to t.len.(l) - 1 do
    f t.pool.(o + (2 * i)) t.pool.(o + (2 * i) + 1)
  done

let remap t l k f =
  let o = t.off.(l) and j = ref 0 in
  for i = 0 to t.len.(l) - 1 do
    let x = f t.pool.(o + (2 * i) + k) in
    if x >= 0 then begin
      t.pool.(o + (2 * !j)) <- t.pool.(o + (2 * i));
      t.pool.(o + (2 * !j) + 1) <- t.pool.(o + (2 * i) + 1);
      t.pool.(o + (2 * !j) + k) <- x;
      incr j
    end
  done;
  t.len.(l) <- !j

let to_list t l =
  let o = t.off.(l) in
  List.init t.len.(l) (fun i -> (t.pool.(o + (2 * i)), t.pool.(o + (2 * i) + 1)))

let check t =
  let issues = ref [] in
  let issue fmt = Printf.ksprintf (fun m -> issues := m :: !issues) fmt in
  let owned = Array.make (t.top / 2) false in
  (* mark a slot's pairs owned; false (and an issue) when the slot
     leaves the pool or overlaps an owned pair *)
  let claim what id first pairs =
    let p = first / 2 in
    let ok =
      first >= 0 && first mod 2 = 0 && p + pairs <= t.top / 2
      && not (Array.exists Fun.id (Array.sub owned p pairs))
    in
    if ok then Array.fill owned p pairs true
    else
      issue "%s %d: slot at word %d leaves the pool or overlaps another" what
        id first;
    ok
  in
  for l = 0 to lists t - 1 do
    let c = t.cap.(l) in
    if t.len.(l) < 0 || t.len.(l) > c then
      issue "list %d holds %d pairs in a slot of %d" l t.len.(l) c;
    if c > 0 && (c < min_cap || c land (c - 1) <> 0) then
      issue "list %d has slot capacity %d" l c
    else if c > 0 then ignore (claim "list" l t.off.(l) c)
  done;
  Array.iteri
    (fun k head ->
      let slot = ref head in
      while !slot >= 0 && claim "free class" k !slot (min_cap lsl k) do
        slot := t.pool.(!slot)
      done)
    t.free;
  List.rev !issues
