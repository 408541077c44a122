type schedule =
  | Always_unknown
  | After_solves of int
  | Truncate_conflicts of int
  | Seeded of { seed : int; unknown_prob : float }

type action = Pass | Forced_unknown | Truncated of int

type state = {
  mutable plan : schedule option;
  mutable rng : int;
  mutable seen : int;
  mutable faults : int;
}

let st = { plan = None; rng = 1; seen = 0; faults = 0 }

(* The harness is process-global mutable state, and solver instances may
   run on several domains at once (lib/par).  Serialize every access so
   counters stay exact; the unarmed fast path still only pays one lock
   round-trip per [solve] call, which is noise next to the search. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let arm plan =
  locked @@ fun () ->
  st.plan <- Some plan;
  st.rng <- (match plan with Seeded { seed; _ } -> seed lor 1 | _ -> 1);
  st.seen <- 0;
  st.faults <- 0

let disarm () = locked @@ fun () -> st.plan <- None
let armed () = locked @@ fun () -> st.plan
let solves_seen () = locked @@ fun () -> st.seen
let injected () = locked @@ fun () -> st.faults

let with_schedule plan f =
  arm plan;
  Fun.protect ~finally:disarm f

let of_string s =
  let num name v =
    match int_of_string_opt v with
    | Some n when n >= 0 -> Ok n
    | _ -> Error (Printf.sprintf "bad %s count %S" name v)
  in
  match String.split_on_char '=' s with
  | [ "unknown" ] -> Ok Always_unknown
  | [ "after"; n ] -> Result.map (fun n -> After_solves n) (num "solve" n)
  | [ "truncate"; n ] ->
      Result.map (fun n -> Truncate_conflicts n) (num "conflict" n)
  | [ "seed"; kp ] -> (
      match String.split_on_char ':' kp with
      | [ k; p ] -> (
          match (int_of_string_opt k, float_of_string_opt p) with
          | Some seed, Some unknown_prob
            when unknown_prob >= 0.0 && unknown_prob <= 1.0 ->
              Ok (Seeded { seed; unknown_prob })
          | _ -> Error (Printf.sprintf "bad seed spec %S" kp))
      | _ -> Error "seed spec is seed=<int>:<prob>")
  | _ ->
      Error
        (Printf.sprintf
           "unknown fault spec %S (try: unknown, after=N, truncate=N, \
            seed=K:P)"
           s)

(* xorshift64 truncated to OCaml's 63-bit int; never yields 0 *)
let step x =
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  let x = x land max_int in
  if x = 0 then 1 else x

let uniform () =
  st.rng <- step st.rng;
  float_of_int (st.rng land 0xFFFFFF) /. 16777216.0

let on_solve () =
  locked @@ fun () ->
  match st.plan with
  | None -> Pass
  | Some plan ->
      let k = st.seen in
      st.seen <- st.seen + 1;
      let action =
        match plan with
        | Always_unknown -> Forced_unknown
        | After_solves n -> if k < n then Pass else Forced_unknown
        | Truncate_conflicts n -> Truncated n
        | Seeded { unknown_prob; _ } ->
            if uniform () < unknown_prob then Forced_unknown else Pass
      in
      if action <> Pass then st.faults <- st.faults + 1;
      action

let corrupt ~seed text =
  (* Private stream so corruption does not disturb an armed schedule. *)
  let r = ref (step (seed lor 1)) in
  let rand m =
    r := step !r;
    !r mod max m 1
  in
  let n = String.length text in
  if n = 0 then "\x00garbage"
  else
    match rand 4 with
    | 0 -> String.sub text 0 (rand n) (* truncate mid-stream *)
    | 1 ->
        (* flip one byte to a printable non-token character *)
        let b = Bytes.of_string text in
        Bytes.set b (rand n) (Char.chr (33 + rand 94));
        Bytes.to_string b
    | 2 ->
        (* delete a short span *)
        let start = rand n in
        let len = min (n - start) (1 + rand 8) in
        String.sub text 0 start
        ^ String.sub text (start + len) (n - start - len)
    | _ ->
        (* splice in a garbage token *)
        let at = rand n in
        String.sub text 0 at ^ " ~!bogus$ " ^ String.sub text at (n - at)
