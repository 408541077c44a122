module Circuit = Qxm_circuit.Circuit
module Gate = Qxm_circuit.Gate

let ghz n =
  if n < 1 then invalid_arg "Algorithms.ghz";
  Circuit.create n
    (Gate.Single (Gate.H, 0)
    :: List.init (n - 1) (fun i -> Gate.Cnot (i, i + 1)))

(* CP(θ) decomposed with phase gates P(λ) = U(0,0,λ): exact, no global
   phase.  P(θ/2) on both qubits, then CX · P(-θ/2) · CX on the target. *)
let controlled_phase_gates theta control target =
  let p angle q = Gate.Single (Gate.U (0.0, 0.0, angle), q) in
  [
    p (theta /. 2.0) control;
    p (theta /. 2.0) target;
    Gate.Cnot (control, target);
    p (-.theta /. 2.0) target;
    Gate.Cnot (control, target);
  ]

let controlled_phase theta control target c =
  List.fold_left Circuit.append c (controlled_phase_gates theta control target)

let qft_gates ?(approximation = max_int) n =
  let gates = ref [] in
  for j = n - 1 downto 0 do
    (* conventional big-endian cascade, highest qubit first *)
    gates := Gate.Single (Gate.H, j) :: !gates;
    for k = j - 1 downto 0 do
      let dist = j - k in
      if dist <= approximation then begin
        let theta = Float.pi /. float_of_int (1 lsl dist) in
        gates :=
          List.rev_append
            (List.rev (controlled_phase_gates theta k j))
            !gates
      end
    done
  done;
  List.rev !gates

let swap_gates a b = [ Gate.Cnot (a, b); Gate.Cnot (b, a); Gate.Cnot (a, b) ]

let qft ?approximation n =
  if n < 1 then invalid_arg "Algorithms.qft";
  let reversal =
    List.concat
      (List.init (n / 2) (fun i -> swap_gates i (n - 1 - i)))
  in
  Circuit.create n (qft_gates ?approximation n @ reversal)

let qft_no_reversal ?approximation n =
  if n < 1 then invalid_arg "Algorithms.qft";
  Circuit.create n (qft_gates ?approximation n)

let bernstein_vazirani ~secret n =
  if n < 1 || n > 20 then invalid_arg "Algorithms.bernstein_vazirani";
  let ancilla = n in
  let h q = Gate.Single (Gate.H, q) in
  let data = List.init n Fun.id in
  let prologue =
    List.map h data
    @ [ Gate.Single (Gate.X, ancilla); h ancilla ]
  in
  let oracle =
    List.filter_map
      (fun q ->
        if secret land (1 lsl q) <> 0 then Some (Gate.Cnot (q, ancilla))
        else None)
      data
  in
  let epilogue = List.map h data in
  Circuit.create (n + 1) (prologue @ oracle @ epilogue)

(* Multi-controlled Z on all of [qs] (|qs| in [2,3]): sandwich a C^{k-1}X
   with H on the last qubit. *)
let controlled_z_gates qs =
  match qs with
  | [ a; b ] -> [ Gate.Single (Gate.H, b); Gate.Cnot (a, b); Gate.Single (Gate.H, b) ]
  | [ a; b; c ] ->
      (Gate.Single (Gate.H, c) :: Mct.toffoli_gates a b c)
      @ [ Gate.Single (Gate.H, c) ]
  | _ -> invalid_arg "Algorithms: controlled-Z arity"

let grover ~marked n =
  if n < 2 || n > 3 then invalid_arg "Algorithms.grover: n must be 2 or 3";
  if marked < 0 || marked >= 1 lsl n then
    invalid_arg "Algorithms.grover: bad marked state";
  let data = List.init n Fun.id in
  let h = List.map (fun q -> Gate.Single (Gate.H, q)) data in
  let x = List.map (fun q -> Gate.Single (Gate.X, q)) data in
  let flips_for pattern =
    List.filter_map
      (fun q ->
        if pattern land (1 lsl q) = 0 then Some (Gate.Single (Gate.X, q))
        else None)
      data
  in
  let oracle =
    flips_for marked @ controlled_z_gates data @ flips_for marked
  in
  let diffusion = h @ x @ controlled_z_gates data @ x @ h in
  Circuit.create n (h @ oracle @ diffusion)

let cuccaro_adder k =
  if k < 1 then invalid_arg "Algorithms.cuccaro_adder";
  (* qubit layout: 0 = carry-in, then b_i = 1+2i, a_i = 2+2i, carry-out
     last.  MAJ/UMA blocks as in Cuccaro et al. (quant-ph/0410184). *)
  let b i = 1 + (2 * i) in
  let a i = 2 + (2 * i) in
  let cin = 0 and cout = (2 * k) + 1 in
  let maj c bq aq =
    [ Gate.Cnot (aq, bq); Gate.Cnot (aq, c) ] @ Mct.toffoli_gates c bq aq
  in
  let uma c bq aq =
    Mct.toffoli_gates c bq aq @ [ Gate.Cnot (aq, c); Gate.Cnot (c, bq) ]
  in
  let forward =
    List.concat
      (List.init k (fun i ->
           let c = if i = 0 then cin else a (i - 1) in
           maj c (b i) (a i)))
  in
  let carry = [ Gate.Cnot (a (k - 1), cout) ] in
  let backward =
    List.concat
      (List.init k (fun idx ->
           let i = k - 1 - idx in
           let c = if i = 0 then cin else a (i - 1) in
           uma c (b i) (a i)))
  in
  Circuit.create ((2 * k) + 2) (forward @ carry @ backward)
