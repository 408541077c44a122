type t = {
  num_qubits : int;
  edges : (int * int) list; (* sorted, deduplicated *)
  matrix : bool array array; (* matrix.(c).(t) = directed edge present *)
}

let create ~num_qubits edges =
  if num_qubits <= 0 then invalid_arg "Coupling.create: no qubits";
  let matrix = Array.make_matrix num_qubits num_qubits false in
  List.iter
    (fun (c, t) ->
      if c < 0 || c >= num_qubits || t < 0 || t >= num_qubits then
        invalid_arg
          (Printf.sprintf "Coupling.create: edge (%d,%d) out of range" c t);
      if c = t then invalid_arg "Coupling.create: self-loop";
      matrix.(c).(t) <- true)
    edges;
  let edges = List.sort_uniq compare edges in
  { num_qubits; edges; matrix }

let num_qubits cm = cm.num_qubits
let edges cm = cm.edges
let allows cm c t = cm.matrix.(c).(t)
let coupled cm a b = cm.matrix.(a).(b) || cm.matrix.(b).(a)

let neighbors cm q =
  List.filter (fun p -> p <> q && coupled cm p q)
    (List.init cm.num_qubits Fun.id)

let undirected_edges cm =
  List.sort_uniq compare
    (List.map (fun (a, b) -> if a < b then (a, b) else (b, a)) cm.edges)

let degree cm q = List.length (neighbors cm q)

let bfs_reach cm allowed start =
  let in_set = Array.make cm.num_qubits false in
  List.iter (fun q -> in_set.(q) <- true) allowed;
  let seen = Array.make cm.num_qubits false in
  let queue = Queue.create () in
  Queue.add start queue;
  seen.(start) <- true;
  let count = ref 0 in
  while not (Queue.is_empty queue) do
    let q = Queue.pop queue in
    incr count;
    List.iter
      (fun p ->
        if in_set.(p) && not seen.(p) then begin
          seen.(p) <- true;
          Queue.add p queue
        end)
      (neighbors cm q)
  done;
  !count

let subset_connected cm subset =
  match subset with
  | [] -> true
  | q :: _ -> bfs_reach cm subset q = List.length subset

let is_connected cm =
  subset_connected cm (List.init cm.num_qubits Fun.id)

let largest_component cm =
  let seen = Array.make cm.num_qubits false in
  let rec size q =
    if seen.(q) then 0
    else begin
      seen.(q) <- true;
      List.fold_left (fun acc p -> acc + size p) 1 (neighbors cm q)
    end
  in
  let best = ref 0 in
  for q = 0 to cm.num_qubits - 1 do
    best := max !best (size q)
  done;
  !best

let induce cm subset =
  let sorted = List.sort_uniq compare subset in
  if List.length sorted <> List.length subset then
    invalid_arg "Coupling.induce: duplicate qubits";
  if sorted <> subset then invalid_arg "Coupling.induce: subset not sorted";
  let back = Array.of_list subset in
  let fwd = Hashtbl.create 8 in
  Array.iteri (fun i q -> Hashtbl.replace fwd q i) back;
  let edges =
    List.filter_map
      (fun (c, t) ->
        match (Hashtbl.find_opt fwd c, Hashtbl.find_opt fwd t) with
        | Some c', Some t' -> Some (c', t')
        | _ -> None)
      cm.edges
  in
  (create ~num_qubits:(Array.length back) edges, back)

let triangles cm =
  let n = cm.num_qubits in
  let acc = ref [] in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      if coupled cm a b then
        for c = b + 1 to n - 1 do
          if coupled cm a c && coupled cm b c then acc := (a, b, c) :: !acc
        done
    done
  done;
  List.rev !acc

let equal a b = a.num_qubits = b.num_qubits && a.edges = b.edges

let pp fmt cm =
  Format.fprintf fmt "@[<v>coupling map on %d qubits:@," cm.num_qubits;
  List.iter (fun (c, t) -> Format.fprintf fmt "  p%d -> p%d@," c t) cm.edges;
  Format.fprintf fmt "@]"

let to_dot cm =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph coupling {\n";
  for q = 0 to cm.num_qubits - 1 do
    Buffer.add_string buf (Printf.sprintf "  p%d;\n" q)
  done;
  List.iter
    (fun (c, t) -> Buffer.add_string buf (Printf.sprintf "  p%d -> p%d;\n" c t))
    cm.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
