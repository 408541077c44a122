(* Usage: same_answer_check FILE1 FILE2

   Checks that FILE1 and FILE2 (the captured stdout of two successful
   `qxmap map --portfolio --json` runs) report the same "f_cost",
   "provenance" and "optimal".  Exits 1 with a message otherwise. *)

module Sjson = Qxm_json.Sjson

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let answer file =
  let text = In_channel.with_open_bin file In_channel.input_all in
  match Sjson.parse text with
  | Error e -> fail "%s: stdout is not one JSON document: %s" file e
  | Ok v ->
      List.map
        (fun key ->
          match Sjson.member key v with
          | Some field -> (key, Sjson.print field)
          | None -> fail "%s: no %S field" file key)
        [ "f_cost"; "provenance"; "optimal" ]

let () =
  match Sys.argv with
  | [| _; file1; file2 |] ->
      List.iter2
        (fun (key, a) (_, b) ->
          if a <> b then
            fail "%s: %s %s, but %s: %s %s" file1 key a file2 key b)
        (answer file1) (answer file2)
  | _ -> fail "usage: same_answer_check FILE1 FILE2"
