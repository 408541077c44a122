(* Usage: json_report_check FILE MODE

   Checks that FILE (the captured stdout of a failed `qxmap map --json`
   run) is exactly one JSON object whose "mode" is MODE and which
   carries a string "error" field.  Exits 1 with a message otherwise. *)

module Sjson = Qxm_json.Sjson

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let () =
  match Sys.argv with
  | [| _; file; mode |] -> (
      let text = In_channel.with_open_bin file In_channel.input_all in
      match Sjson.parse text with
      | Error e -> fail "%s: stdout is not one JSON document: %s" file e
      | Ok (Sjson.Obj _ as v) -> (
          (match Option.bind (Sjson.member "mode" v) Sjson.to_string_opt with
          | Some m when m = mode -> ()
          | _ -> fail "%s: expected \"mode\": %S" file mode);
          match Option.bind (Sjson.member "error" v) Sjson.to_string_opt with
          | Some _ -> ()
          | None -> fail "%s: no string \"error\" field" file)
      | Ok _ -> fail "%s: stdout is JSON but not an object" file)
  | _ -> fail "usage: json_report_check FILE MODE"
