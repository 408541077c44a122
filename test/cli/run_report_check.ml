(* Usage: run_report_check REPORT.json STDERR.txt

   Checks the captured output of a successful
   `qxmap map --json --progress` run: REPORT.json (stdout) is exactly
   one JSON object whose "phase_seconds" has the five mapper phases and
   whose "trajectory" is a non-empty list of [seconds, cost] pairs in
   time order with strictly decreasing costs; STDERR.txt holds a
   --progress status line.  Exits 1 with a message otherwise. *)

module Sjson = Qxm_json.Sjson

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt
let read file = In_channel.with_open_bin file In_channel.input_all

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let check_phases file v =
  match Sjson.member "phase_seconds" v with
  | Some (Sjson.Obj fields) ->
      List.iter
        (fun phase ->
          match Option.bind (List.assoc_opt phase fields) Sjson.to_float_opt with
          | Some s when s >= 0.0 -> ()
          | _ -> fail "%s: phase_seconds lacks a number for %S" file phase)
        [ "encode"; "warm_start"; "solve"; "reconstruct"; "verify" ]
  | _ -> fail "%s: no \"phase_seconds\" object" file

let check_trajectory file v =
  let point = function
    | Sjson.List [ t; c ] -> (
        match (Sjson.to_float_opt t, Sjson.to_int_opt c) with
        | Some t, Some c -> (t, c)
        | _ -> fail "%s: trajectory point is not [seconds, cost]" file)
    | _ -> fail "%s: trajectory point is not a pair" file
  in
  match Sjson.member "trajectory" v with
  | Some (Sjson.List (_ :: _ as points)) ->
      ignore
        (List.fold_left
           (fun (prev_t, prev_c) p ->
             let t, c = point p in
             if t < prev_t then fail "%s: trajectory times go backwards" file;
             if c >= prev_c then
               fail "%s: trajectory costs not strictly decreasing" file;
             (t, c))
           (neg_infinity, max_int) points)
  | _ -> fail "%s: no non-empty \"trajectory\" list" file

let () =
  match Sys.argv with
  | [| _; report; stderr |] -> (
      (match Sjson.parse (read report) with
      | Error e -> fail "%s: stdout is not one JSON document: %s" report e
      | Ok (Sjson.Obj _ as v) ->
          check_phases report v;
          check_trajectory report v
      | Ok _ -> fail "%s: stdout is JSON but not an object" report);
      let err = read stderr in
      if not (contains ~sub:"\r[" err && contains ~sub:"best=" err) then
        fail "%s: no --progress status line" stderr)
  | _ -> fail "usage: run_report_check REPORT.json STDERR.txt"
