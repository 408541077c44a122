module Int = struct
  type t = { mutable data : int array; mutable size : int }

  let create ?(capacity = 16) () =
    { data = Array.make (max capacity 1) 0; size = 0 }

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

  let clear v = v.size <- 0

  let shrink v n =
    if n < 0 || n > v.size then invalid_arg "Vec.Int.shrink";
    v.size <- n

  let iter f v =
    for i = 0 to v.size - 1 do
      f (Array.unsafe_get v.data i)
    done

  let to_list v = List.init v.size (fun i -> Array.unsafe_get v.data i)

  let to_array v = Array.sub v.data 0 v.size

  let sort cmp v =
    let a = to_array v in
    Array.sort cmp a;
    Array.blit a 0 v.data 0 v.size
end
