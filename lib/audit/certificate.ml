module Sjson = Qxm_json.Sjson
module Amo = Qxm_encode.Amo

type t = {
  original_qasm : string;
  device_name : string;
  device_qubits : int;
  device_edges : (int * int) list;
  subset : int list;
  strategy : string;
  amo : string;
  swap_weight : int;
  flip_weight : int;
  symmetry : bool;
  claimed_cost : int;
  model : bool array;
  bounds : int list;
  pb_cap : int option;
  proof_drup : string;
  init_full : int array;
  final_full : int array;
  mapped_qasm : string;
  elementary_qasm : string;
}

let format_id = "QXMCERT1"

let amo_name = function
  | Amo.Pairwise -> "pairwise"
  | Amo.Sequential -> "sequential"
  | Amo.Commander -> "commander"

let amo_of_name = function
  | "pairwise" -> Some Amo.Pairwise
  | "sequential" -> Some Amo.Sequential
  | "commander" -> Some Amo.Commander
  | _ -> None

(* The model is stored as a compact '0'/'1' string: certificates carry
   one bit per solver variable and large instances have tens of
   thousands of them. *)
let model_to_string m =
  String.init (Array.length m) (fun i -> if m.(i) then '1' else '0')

let model_of_string s =
  let n = String.length s in
  let m = Array.make n false in
  let ok = ref true in
  String.iteri
    (fun i c ->
      match c with
      | '1' -> m.(i) <- true
      | '0' -> ()
      | _ -> ok := false)
    s;
  if !ok then Ok m else Error "model must be a string of '0'/'1' characters"

let to_json c =
  let num i = Sjson.Num (float_of_int i) in
  let int_list l = Sjson.List (List.map num l) in
  let int_array a = Sjson.List (Array.to_list a |> List.map num) in
  Sjson.Obj
    ([
      ("format", Sjson.Str format_id);
      ( "device",
        Sjson.Obj
          [
            ("name", Sjson.Str c.device_name);
            ("qubits", num c.device_qubits);
            ( "edges",
              Sjson.List
                (List.map
                   (fun (a, b) -> Sjson.List [ num a; num b ])
                   c.device_edges) );
          ] );
      ("subset", int_list c.subset);
      ("strategy", Sjson.Str c.strategy);
      ("amo", Sjson.Str c.amo);
      ("costs", Sjson.Obj [ ("swap", num c.swap_weight); ("flip", num c.flip_weight) ]);
      ("symmetry", Sjson.Bool c.symmetry);
      ("claimed_cost", num c.claimed_cost);
      ("model", Sjson.Str (model_to_string c.model));
      ("bounds", int_list c.bounds);
    ]
    @ (match c.pb_cap with Some cap -> [ ("pb_cap", num cap) ] | None -> [])
    @ [
        ("proof_drup", Sjson.Str c.proof_drup);
        ("init_full", int_array c.init_full);
        ("final_full", int_array c.final_full);
        ("original_qasm", Sjson.Str c.original_qasm);
        ("mapped_qasm", Sjson.Str c.mapped_qasm);
        ("elementary_qasm", Sjson.Str c.elementary_qasm);
      ])

(* Small applicative helpers: every accessor yields a [result] tagged
   with the offending field so parse failures are one-line precise. *)
let ( let* ) = Result.bind

let field name j =
  match Sjson.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let str name j =
  let* v = field name j in
  match Sjson.to_string_opt v with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "field %S must be a string" name)

let int_ name j =
  let* v = field name j in
  match Sjson.to_int_opt v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "field %S must be an integer" name)

let int_list_of name v =
  match v with
  | Sjson.List items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | x :: rest -> (
            match Sjson.to_int_opt x with
            | Some i -> go (i :: acc) rest
            | None ->
                Error (Printf.sprintf "field %S must contain integers" name))
      in
      go [] items
  | _ -> Error (Printf.sprintf "field %S must be a list" name)

let int_list name j =
  let* v = field name j in
  int_list_of name v

let int_array name j =
  let* l = int_list name j in
  Ok (Array.of_list l)

let of_json j =
  let* fmt = str "format" j in
  if fmt <> format_id then
    Error (Printf.sprintf "unsupported certificate format %S" fmt)
  else
    let* device = field "device" j in
    let* device_name = str "name" device in
    let* device_qubits = int_ "qubits" device in
    let* edges_j = field "edges" device in
    let* device_edges =
      match edges_j with
      | Sjson.List items ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | Sjson.List [ a; b ] :: rest -> (
                match (Sjson.to_int_opt a, Sjson.to_int_opt b) with
                | Some a, Some b -> go ((a, b) :: acc) rest
                | _ -> Error "device edges must be integer pairs")
            | _ -> Error "device edges must be integer pairs"
          in
          go [] items
      | _ -> Error "field \"edges\" must be a list"
    in
    let* subset = int_list "subset" j in
    let* strategy = str "strategy" j in
    let* amo = str "amo" j in
    let* costs = field "costs" j in
    let* swap_weight = int_ "swap" costs in
    let* flip_weight = int_ "flip" costs in
    (* Absent in certificates that predate symmetry breaking: those were
       produced from unrestricted encodings, so the default is [false]. *)
    let* symmetry =
      match Sjson.member "symmetry" j with
      | None -> Ok false
      | Some v -> (
          match Sjson.to_bool_opt v with
          | Some b -> Ok b
          | None -> Error "field \"symmetry\" must be a boolean")
    in
    let* claimed_cost = int_ "claimed_cost" j in
    let* model_s = str "model" j in
    let* model = model_of_string model_s in
    let* bounds = int_list "bounds" j in
    (* Absent in certificates that predate capped objective circuits:
       their producers built the circuit over every attainable sum. *)
    let* pb_cap =
      match Sjson.member "pb_cap" j with
      | None -> Ok None
      | Some v -> (
          match Sjson.to_int_opt v with
          | Some i -> Ok (Some i)
          | None -> Error "field \"pb_cap\" must be an integer")
    in
    let* proof_drup = str "proof_drup" j in
    let* init_full = int_array "init_full" j in
    let* final_full = int_array "final_full" j in
    let* original_qasm = str "original_qasm" j in
    let* mapped_qasm = str "mapped_qasm" j in
    let* elementary_qasm = str "elementary_qasm" j in
    Ok
      {
        original_qasm;
        device_name;
        device_qubits;
        device_edges;
        subset;
        strategy;
        amo;
        swap_weight;
        flip_weight;
        symmetry;
        claimed_cost;
        model;
        bounds;
        pb_cap;
        proof_drup;
        init_full;
        final_full;
        mapped_qasm;
        elementary_qasm;
      }

let to_string c = Sjson.print (to_json c)

let of_string s =
  let* j = Sjson.parse s in
  of_json j
