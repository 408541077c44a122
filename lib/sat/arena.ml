(* Flat int-packed clause arena.

   Every clause lives inside one growable unboxed [int array]; a clause
   reference (cref) is the word offset of its header.  Layout, from the
   cref:

     +0  header:  (size lsl 3) lor flags
                  flags bit0 = learnt, bit1 = deleted, bit2 = moved
     +1  lbd      (glue; during compaction of a moved clause: the
                  forwarding cref in the destination arena)
     +2  activity (IEEE-754 bits of a non-negative float, 63-bit int)
     +3 .. +3+size-1  literals (Lit.t as int)

   Storing activities as raw float bits is lossless for the solver's
   activities: they are always non-negative, so bit 63 of the IEEE
   pattern is 0 and the 63-bit OCaml int keeps every significant bit
   (restore masks with [Int64.max_int] to undo [Int64.of_int]'s sign
   extension).

   Deleted clauses leave their words behind as garbage; the [wasted]
   counter tracks them so the solver can trigger a copying collection
   ([move]/[forward]) when the fraction grows.  Every header position
   holds a real clause, so [validate] and [clause_offsets] walk the
   arena header by header.  The arena itself never scans for liveness —
   the solver knows its roots (clause lists, watch lists, reasons) and
   drives the relocation. *)

type t = {
  mutable mem : int array;
  mutable top : int; (* first free word *)
  mutable wasted : int; (* words owned by deleted clauses *)
}

let header_words = 3
let cref_undef = -1

let flag_learnt = 1
let flag_deleted = 2
let flag_moved = 4

let create ?(capacity = 1024) () =
  { mem = Array.make (max capacity header_words) 0; top = 0; wasted = 0 }

let mem t = t.mem
let top t = t.top
let wasted t = t.wasted

let ensure t n =
  if t.top + n > Array.length t.mem then begin
    let cap = ref (Array.length t.mem) in
    while !cap < t.top + n do
      cap := !cap * 2
    done;
    let mem = Array.make !cap 0 in
    Array.blit t.mem 0 mem 0 t.top;
    t.mem <- mem
  end

let size t c = Array.unsafe_get t.mem c lsr 3
let deleted t c = Array.unsafe_get t.mem c land flag_deleted <> 0

let set_deleted t c =
  if not (deleted t c) then begin
    t.mem.(c) <- t.mem.(c) lor flag_deleted;
    t.wasted <- t.wasted + header_words + size t c
  end

let lbd t c = Array.unsafe_get t.mem (c + 1)

let activity t c =
  Int64.float_of_bits
    (Int64.logand (Int64.of_int (Array.unsafe_get t.mem (c + 2))) Int64.max_int)

let set_activity t c f =
  Array.unsafe_set t.mem (c + 2) (Int64.to_int (Int64.bits_of_float f))

(* The raw 63-bit activity word.  Activities are non-negative, so the
   bit pattern of the underlying IEEE-754 double is monotone in the
   float value: comparing these words as integers orders clauses
   exactly like comparing [activity] results, without constructing any
   boxed float. *)
let activity_bits t c = Array.unsafe_get t.mem (c + 2)

(* Add [inc] to the clause's activity in place; returns [true] when the
   result crossed the rescale threshold.  Doing the read-add-write
   cycle inside the arena keeps the intermediate float unboxed — the
   caller never sees it, so no boxed float is allocated per bump. *)
let bump_activity t c inc =
  let act = activity t c +. inc in
  set_activity t c act;
  act > 1e20

let lit t c i = Array.unsafe_get t.mem (c + header_words + i)

let lits t c = Array.sub t.mem (c + header_words) (size t c)

(* Allocate a clause from the first [len] entries of [lits]. *)
let alloc t ~learnt ~lbd lits len =
  ensure t (header_words + len);
  let c = t.top in
  t.mem.(c) <- (len lsl 3) lor (if learnt then flag_learnt else 0);
  t.mem.(c + 1) <- lbd;
  t.mem.(c + 2) <- 0;
  Array.blit lits 0 t.mem (c + header_words) len;
  t.top <- t.top + header_words + len;
  c

(* -- copying collection -------------------------------------------------- *)

(* Move clause [c] of [t] into [into] (unless already moved), installing a
   forwarding pointer in the old header.  Deleted clauses are not moved:
   [forward] returns [cref_undef] for them, which is how the solver drops
   stale watchers during the remap. *)
let move t ~into c =
  if t.mem.(c) land flag_moved <> 0 then t.mem.(c + 1)
  else if deleted t c then cref_undef
  else begin
    let n = size t c in
    ensure into (header_words + n);
    let c' = into.top in
    Array.blit t.mem c into.mem c' (header_words + n);
    into.top <- into.top + header_words + n;
    t.mem.(c) <- t.mem.(c) lor flag_moved;
    t.mem.(c + 1) <- c';
    c'
  end

let forward t c =
  if t.mem.(c) land flag_moved <> 0 then t.mem.(c + 1) else cref_undef

(* -- structural audit ----------------------------------------------------- *)

(* Walk the arena header by header.  Raises nothing: a corrupt size field
   is reported rather than chased past the bounds. *)
let validate ?(nvars = max_int) t =
  let issues = ref [] in
  let issue fmt = Printf.ksprintf (fun m -> issues := m :: !issues) fmt in
  if t.top > Array.length t.mem then
    issue "arena top %d beyond storage of %d words" t.top (Array.length t.mem);
  let c = ref 0 in
  let live_words = ref 0 in
  let stop = ref false in
  while (not !stop) && !c < t.top do
    let header = t.mem.(!c) in
    let n = header lsr 3 in
    if header land flag_moved <> 0 then begin
      issue "clause at %d carries the moved flag outside a collection" !c;
      stop := true
    end
    else if n < 2 then begin
      issue "clause at %d has size %d (< 2)" !c n;
      stop := true
    end
    else if !c + header_words + n > t.top then begin
      issue "clause at %d (size %d) overruns the arena top %d" !c n t.top;
      stop := true
    end
    else begin
      if header land flag_deleted = 0 then begin
        live_words := !live_words + header_words + n;
        if t.mem.(!c + 1) < 0 then
          issue "clause at %d has negative LBD %d" !c t.mem.(!c + 1);
        for i = 0 to n - 1 do
          let l = t.mem.(!c + header_words + i) in
          if l < 0 || l lsr 1 >= nvars then
            issue "clause at %d holds out-of-range literal %d at slot %d" !c
              l i
        done
      end;
      c := !c + header_words + n
    end
  done;
  if (not !stop) && t.top - !live_words <> t.wasted then
    issue "wasted counter %d disagrees with scan (%d garbage words)" t.wasted
      (t.top - !live_words);
  List.rev !issues

(* Offsets of every clause (live and deleted) in layout order; used by the
   invariant checker to validate crefs held in watches and reasons. *)
let clause_offsets t =
  let offs = ref [] in
  let c = ref 0 in
  let stop = ref false in
  while (not !stop) && !c < t.top do
    let n = size t !c in
    if n < 2 || !c + header_words + n > t.top then stop := true
    else begin
      offs := !c :: !offs;
      c := !c + header_words + n
    end
  done;
  List.rev !offs

(* -- seeded corruption for the lint tests --------------------------------- *)

let corrupt_flags t =
  if t.top = 0 then false
  else begin
    t.mem.(0) <- t.mem.(0) lor flag_moved;
    true
  end
