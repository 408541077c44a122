let with_unit = function None -> "" | Some u -> " of " ^ u

let bad ~flag ?unit what shown =
  Error
    (Printf.sprintf "%s must be a %s%s, got '%s'" flag what (with_unit unit)
       shown)

let pos_float ~flag ?unit v =
  if Float.is_nan v || not (Float.is_finite v) || v <= 0.0 then
    bad ~flag ?unit "positive finite number" (string_of_float v)
  else Ok v

let pos_int ~flag ?unit v =
  if v <= 0 then bad ~flag ?unit "positive integer" (string_of_int v)
  else Ok v

let parse_pos_float ~flag ?unit s =
  match float_of_string_opt (String.trim s) with
  | None -> bad ~flag ?unit "positive finite number" s
  | Some v -> (
      match pos_float ~flag ?unit v with
      | Ok _ -> Ok v
      | Error _ -> bad ~flag ?unit "positive finite number" s)

let parse_pos_int ~flag ?unit s =
  match int_of_string_opt (String.trim s) with
  | None -> bad ~flag ?unit "positive integer" s
  | Some v -> (
      match pos_int ~flag ?unit v with
      | Ok _ -> Ok v
      | Error _ -> bad ~flag ?unit "positive integer" s)
