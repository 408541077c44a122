exception Parse_error of { line : int; message : string }

let fail line fmt =
  Format.kasprintf (fun message -> raise (Parse_error { line; message })) fmt

type problem = { num_vars : int; clauses : Lit.t list list }

(* Keep the variable space sane: a hostile or corrupted header must not
   make [load] allocate gigabytes of watcher structures. *)
let max_declared_vars = 50_000_000

let parse_string text =
  let num_vars = ref (-1) in
  let clauses = ref [] in
  let current = ref [] in
  let lines = String.split_on_char '\n' text in
  let handle_token lineno tok =
    match int_of_string_opt tok with
    | None -> fail lineno "bad token %S (expected an integer literal)" tok
    | Some 0 ->
        clauses := List.rev !current :: !clauses;
        current := []
    | Some i ->
        (* both signs are compared: [abs min_int] is negative; without a
           problem line the header's own cap bounds a literal, so [load]
           never allocates more variables than a header could declare *)
        let declared = !num_vars >= 0 in
        let bound = if declared then !num_vars else max_declared_vars in
        if i > bound || i < -bound then
          fail lineno "literal %d exceeds the %d variables %s" i bound
            (if declared then "declared" else "a problem line may declare");
        current := Lit.of_int i :: !current
  in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line = String.trim line in
      if line = "" || line.[0] = 'c' || line.[0] = '%' then ()
      else if line.[0] = 'p' then begin
        if !num_vars >= 0 then fail lineno "duplicate problem line";
        match
          String.split_on_char ' ' line
          |> List.concat_map (String.split_on_char '\t')
          |> List.filter (fun s -> s <> "")
        with
        | [ "p"; "cnf"; v; c ] -> (
            match (int_of_string_opt v, int_of_string_opt c) with
            | Some v, Some c when v >= 0 && c >= 0 ->
                if v > max_declared_vars then
                  fail lineno "declared variable count %d is unreasonable" v;
                num_vars := v
            | _ ->
                fail lineno
                  "bad problem line %S (expected \"p cnf <vars> <clauses>\")"
                  line)
        | _ ->
            fail lineno
              "bad problem line %S (expected \"p cnf <vars> <clauses>\")"
              line
      end
      else
        String.split_on_char ' ' line
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun s -> s <> "")
        |> List.iter (handle_token lineno))
    lines;
  if !current <> [] then clauses := List.rev !current :: !clauses;
  let declared = !num_vars in
  let used =
    List.fold_left
      (fun acc c ->
        List.fold_left (fun acc l -> max acc (Lit.var l + 1)) acc c)
      0 !clauses
  in
  { num_vars = max declared used; clauses = List.rev !clauses }

let parse_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let n = in_channel_length ic in
      parse_string (really_input_string ic n))

let load solver problem =
  for _ = 1 to problem.num_vars do
    ignore (Solver.new_var solver)
  done;
  List.iter (Solver.add_clause solver) problem.clauses

let pp fmt { num_vars; clauses } =
  Format.fprintf fmt "p cnf %d %d@\n" num_vars (List.length clauses);
  List.iter
    (fun c ->
      List.iter (fun l -> Format.fprintf fmt "%d " (Lit.to_int l)) c;
      Format.fprintf fmt "0@\n")
    clauses

let pp_model fmt model =
  Format.fprintf fmt "v";
  Array.iteri
    (fun v b -> Format.fprintf fmt " %d" (if b then v + 1 else -(v + 1)))
    model;
  Format.fprintf fmt " 0"
