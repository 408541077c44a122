module Layers = Qxm_circuit.Layers

type t = Minimal | Disjoint_qubits | Odd_gates | Qubit_triangle

let all = [ Minimal; Disjoint_qubits; Odd_gates; Qubit_triangle ]

let spots strategy cnots =
  let g = List.length cnots in
  if g <= 1 then []
  else
    match strategy with
    | Minimal -> List.init (g - 1) (fun i -> i + 1)
    | Disjoint_qubits -> Layers.starts (Layers.of_pairs cnots)
    | Odd_gates ->
        (* 1-based odd gate indices k >= 3 are 0-based even positions. *)
        List.filter (fun k -> k mod 2 = 0) (List.init (g - 1) (fun i -> i + 1))
    | Qubit_triangle -> Layers.run_starts_bounded ~k:3 cnots

let reported_size strategy cnots =
  if cnots = [] then 0 else 1 + List.length (spots strategy cnots)

let name = function
  | Minimal -> "minimal"
  | Disjoint_qubits -> "disjoint"
  | Odd_gates -> "odd"
  | Qubit_triangle -> "triangle"

let of_string = function
  | "minimal" -> Some Minimal
  | "disjoint" | "disjoint-qubits" -> Some Disjoint_qubits
  | "odd" | "odd-gates" -> Some Odd_gates
  | "triangle" | "qubit-triangle" -> Some Qubit_triangle
  | _ -> None

let pp fmt s = Format.pp_print_string fmt (name s)
