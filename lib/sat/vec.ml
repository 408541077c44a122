module Int = struct
  type t = { mutable data : int array; mutable size : int }

  let create ?(capacity = 16) () =
    { data = Array.make (max capacity 1) 0; size = 0 }

  let make n x = { data = Array.make (max n 1) x; size = n }
  let size v = v.size
  let is_empty v = v.size = 0

  let get v i =
    if i < 0 || i >= v.size then invalid_arg "Vec.Int.get";
    Array.unsafe_get v.data i

  let set v i x =
    if i < 0 || i >= v.size then invalid_arg "Vec.Int.set";
    Array.unsafe_set v.data i x

  let unsafe_get v i = Array.unsafe_get v.data i
  let unsafe_set v i x = Array.unsafe_set v.data i x

  let ensure v n =
    if n > Array.length v.data then begin
      let cap = ref (Array.length v.data) in
      while !cap < n do
        cap := !cap * 2
      done;
      let data = Array.make !cap 0 in
      Array.blit v.data 0 data 0 v.size;
      v.data <- data
    end

  let push v x =
    ensure v (v.size + 1);
    Array.unsafe_set v.data v.size x;
    v.size <- v.size + 1

  let pop v =
    if v.size = 0 then invalid_arg "Vec.Int.pop";
    v.size <- v.size - 1;
    Array.unsafe_get v.data v.size

  let last v =
    if v.size = 0 then invalid_arg "Vec.Int.last";
    Array.unsafe_get v.data (v.size - 1)

  let clear v = v.size <- 0

  let shrink v n =
    if n < 0 || n > v.size then invalid_arg "Vec.Int.shrink";
    v.size <- n

  let grow_to v n x =
    ensure v n;
    while v.size < n do
      Array.unsafe_set v.data v.size x;
      v.size <- v.size + 1
    done

  let swap_remove v i =
    if i < 0 || i >= v.size then invalid_arg "Vec.Int.swap_remove";
    v.size <- v.size - 1;
    Array.unsafe_set v.data i (Array.unsafe_get v.data v.size)

  let iter f v =
    for i = 0 to v.size - 1 do
      f (Array.unsafe_get v.data i)
    done

  let fold f acc v =
    let acc = ref acc in
    for i = 0 to v.size - 1 do
      acc := f !acc (Array.unsafe_get v.data i)
    done;
    !acc

  let exists p v =
    let rec go i = i < v.size && (p (Array.unsafe_get v.data i) || go (i + 1)) in
    go 0

  let to_list v = List.init v.size (fun i -> Array.unsafe_get v.data i)

  let of_list l =
    let v = create ~capacity:(max 1 (List.length l)) () in
    List.iter (push v) l;
    v

  let to_array v = Array.sub v.data 0 v.size

  let sort cmp v =
    let a = to_array v in
    Array.sort cmp a;
    Array.blit a 0 v.data 0 v.size
end

module Poly = struct
  type 'a t = { mutable data : 'a array; mutable size : int }

  let create () = { data = [||]; size = 0 }
  let size v = v.size

  let get v i =
    if i < 0 || i >= v.size then invalid_arg "Vec.Poly.get";
    Array.unsafe_get v.data i

  let set v i x =
    if i < 0 || i >= v.size then invalid_arg "Vec.Poly.set";
    Array.unsafe_set v.data i x

  let push v x =
    if v.size = Array.length v.data then begin
      let cap = max 4 (2 * Array.length v.data) in
      let data = Array.make cap x in
      Array.blit v.data 0 data 0 v.size;
      v.data <- data
    end;
    Array.unsafe_set v.data v.size x;
    v.size <- v.size + 1

  let pop v =
    if v.size = 0 then invalid_arg "Vec.Poly.pop";
    v.size <- v.size - 1;
    Array.unsafe_get v.data v.size

  let clear v = v.size <- 0

  let shrink v n =
    if n < 0 || n > v.size then invalid_arg "Vec.Poly.shrink";
    v.size <- n

  let swap_remove v i =
    if i < 0 || i >= v.size then invalid_arg "Vec.Poly.swap_remove";
    v.size <- v.size - 1;
    Array.unsafe_set v.data i (Array.unsafe_get v.data v.size)

  let iter f v =
    for i = 0 to v.size - 1 do
      f (Array.unsafe_get v.data i)
    done

  let fold f acc v =
    let acc = ref acc in
    for i = 0 to v.size - 1 do
      acc := f !acc (Array.unsafe_get v.data i)
    done;
    !acc

  let filter_in_place p v =
    let j = ref 0 in
    for i = 0 to v.size - 1 do
      let x = Array.unsafe_get v.data i in
      if p x then begin
        Array.unsafe_set v.data !j x;
        incr j
      end
    done;
    v.size <- !j

  let to_list v = List.init v.size (fun i -> Array.unsafe_get v.data i)

  let sort cmp v =
    let a = Array.sub v.data 0 v.size in
    Array.sort cmp a;
    Array.blit a 0 v.data 0 v.size
end
