type arg = Int of int | Str of string | Float of float | Bool of bool

type event = {
  ph : [ `B | `E | `I | `C ];
  name : string;
  ts_us : float;
  tid : int;
  args : (string * arg) list;
}

(* Per-domain buffer.  Events are prepended (cheap) and reversed at
   export.  [gen] ties the buffer to one tracer generation: a [reset]
   bumps the generation, so a domain holding a stale cached buffer
   re-registers instead of appending into a dropped list. *)
type buffer = { tid : int; gen : int; mutable rev_events : event list }

(* One atomic word gates every recording path: bit 0 is the unbounded
   in-memory buffer (enable/disable), bit 1 an external sink (the flight
   recorder).  A single load and branch on zero keeps the disabled path
   as cheap as the old boolean. *)
let flag_buffer = 1
let flag_sink = 2
let flags = Atomic.make 0

let set_flag bit v =
  let rec go () =
    let cur = Atomic.get flags in
    let next = if v then cur lor bit else cur land lnot bit in
    if not (Atomic.compare_and_set flags cur next) then go ()
  in
  go ()

let generation = Atomic.make 0

(* Clock origin of the current generation.  [Unix.gettimeofday] is the
   only portable clock in the stdlib; rebasing to the origin keeps
   timestamps small and monotone in practice (the paper-scale runs are
   far shorter than any NTP step). *)
let origin = ref (Unix.gettimeofday ())
let now_us () = (Unix.gettimeofday () -. !origin) *. 1e6

let registry_lock = Mutex.create ()
let registry : buffer list ref = ref []

let enabled () = Atomic.get flags land flag_buffer <> 0
let recording () = Atomic.get flags <> 0

let rebase () =
  Mutex.lock registry_lock;
  registry := [];
  origin := Unix.gettimeofday ();
  Atomic.incr generation;
  Mutex.unlock registry_lock

let enable () =
  if not (enabled ()) then begin
    rebase ();
    set_flag flag_buffer true
  end

let disable () = set_flag flag_buffer false
let reset () = rebase ()

(* External per-event sink (the flight recorder's ring).  The closure is
   published before the flag is raised, so a recording domain that sees
   the flag also sees the closure. *)
let sink_fn : (event -> unit) ref = ref (fun _ -> ())

let set_sink = function
  | None -> set_flag flag_sink false
  | Some f ->
      sink_fn := f;
      set_flag flag_sink true

(* Domain-local cache of the current generation's buffer. *)
let dls_key : buffer option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let local_buffer () =
  let cache = Domain.DLS.get dls_key in
  let gen = Atomic.get generation in
  match !cache with
  | Some b when b.gen = gen -> b
  | _ ->
      let b =
        { tid = (Domain.self () :> int); gen; rev_events = [] }
      in
      Mutex.lock registry_lock;
      (* the generation may have moved while we allocated; registering a
         stale buffer is harmless (export filters by generation) *)
      registry := b :: !registry;
      Mutex.unlock registry_lock;
      cache := Some b;
      b

let record b ev = b.rev_events <- ev :: b.rev_events

let emit ev =
  let fl = Atomic.get flags in
  if fl land flag_buffer <> 0 then record (local_buffer ()) ev;
  if fl land flag_sink <> 0 then !sink_fn ev

let with_span ?(args = []) ~name f =
  if not (recording ()) then f ()
  else begin
    let tid = (Domain.self () :> int) in
    emit { ph = `B; name; ts_us = now_us (); tid; args };
    Fun.protect
      ~finally:(fun () ->
        emit { ph = `E; name; ts_us = now_us (); tid; args = [] })
      f
  end

let point ph args name =
  if recording () then
    emit { ph; name; ts_us = now_us (); tid = (Domain.self () :> int); args }

let instant ?(args = []) name = point `I args name
let counter ?(args = []) name = point `C args name

let events () =
  Mutex.lock registry_lock;
  let gen = Atomic.get generation in
  let buffers =
    List.filter (fun b -> b.gen = gen) !registry
    |> List.sort (fun a b -> compare a.tid b.tid)
  in
  let out =
    List.concat_map (fun b -> List.rev b.rev_events) buffers
  in
  Mutex.unlock registry_lock;
  out

(* -- JSON rendering ------------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let arg_json = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Bool b -> string_of_bool b
  | Str s -> Printf.sprintf "\"%s\"" (json_escape s)

let args_json = function
  | [] -> "{}"
  | args ->
      "{"
      ^ String.concat ", "
          (List.map
             (fun (k, v) ->
               Printf.sprintf "\"%s\": %s" (json_escape k) (arg_json v))
             args)
      ^ "}"

let ph_string = function `B -> "B" | `E -> "E" | `I -> "i" | `C -> "C"

let event_json ev =
  Printf.sprintf
    "{\"name\": \"%s\", \"ph\": \"%s\", \"ts\": %.1f, \"pid\": 0, \"tid\": \
     %d, \"args\": %s}"
    (json_escape ev.name) (ph_string ev.ph) ev.ts_us ev.tid
    (args_json ev.args)

let to_chrome_string () =
  let evs = events () in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\": [\n";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf (event_json ev))
    evs;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let write_chrome path = write_file path (to_chrome_string ())

let write_ndjson path =
  let buf = Buffer.create 4096 in
  List.iter
    (fun ev ->
      Buffer.add_string buf (event_json ev);
      Buffer.add_char buf '\n')
    (events ());
  write_file path (Buffer.contents buf)
