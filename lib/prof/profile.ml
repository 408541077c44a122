(* Offline analysis of the observability artifacts: ingest a trace
   (Chrome JSON or NDJSON) or a flight-recorder dump; explain where the
   time went and check a trace's well-formedness.  This is the only
   reader of these formats in the repository, so the event schema lives
   here.

   The analysis leans on two complementary signals:

   - Spans (B/E pairs) give exact durations for everything that
     completed inside the recorded window: mapper phases, minimize
     steps, portfolio stages, solver solves.
   - Counter samples ("solver.sample" C events, one per 64 conflicts)
     fall inside the spans that were open when they were taken.
     Attributing each inter-sample gap to the stage, candidate and rung
     named by the spans open around the sample that closes it recovers
     a wall-time breakdown even when those spans never closed — which
     is exactly the shape of a flight dump taken mid-solve or of a run
     killed by the watchdog.

   Durations are histogrammed into the same log2 buckets as
   [Qxm_obs.Metrics] so quantiles come from one shared interpolation. *)

module Sjson = Qxm_json.Sjson
module Metrics = Qxm_obs.Metrics

(* -- input ----------------------------------------------------------------- *)

type event = {
  e_name : string;
  e_ph : string;
  e_ts : float; (* microseconds since trace origin *)
  e_tid : int;
  e_args : Sjson.t;
}

type input =
  | Flight of { f_reason : string; f_dropped : int; f_events : event list }
  | Trace_events of event list

let str_mem k j = Option.bind (Sjson.member k j) Sjson.to_string_opt
let num_mem k j = Option.bind (Sjson.member k j) Sjson.to_float_opt
let int_mem k j = Option.bind (Sjson.member k j) Sjson.to_int_opt

(* The event schema [Qxm_obs.Trace.event_json] writes.  A malformed
   event rejects the whole artifact: skipping it, or defaulting its
   tid, would hide exactly the corruption the check looks for. *)
let event_of_json j =
  match (str_mem "name" j, str_mem "ph" j, num_mem "ts" j, int_mem "tid" j) with
  | Some e_name, Some e_ph, Some e_ts, Some e_tid -> (
      match e_ph with
      | "B" | "E" | "i" | "I" | "C" ->
          Ok
            {
              e_name;
              e_ph;
              e_ts;
              e_tid;
              e_args =
                Option.value ~default:Sjson.Null (Sjson.member "args" j);
            }
      | _ -> Error (Printf.sprintf "unknown phase %S" e_ph))
  | _ -> Error "event object missing name/ph/ts/tid"

(* [items] are (position, JSON) pairs; [where] names the position. *)
let events_of ~where items =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (pos, j) :: rest -> (
        match event_of_json j with
        | Ok ev -> go (ev :: acc) rest
        | Error e -> Error (Printf.sprintf "%s %d: %s" where pos e))
  in
  go [] items

(* Every non-empty line with its 1-based line number, parsed; the first
   line that is not JSON fails the whole input. *)
let json_lines content =
  let rec go acc n = function
    | [] -> Ok (List.rev acc)
    | l :: rest -> (
        let l = String.trim l in
        if l = "" then go acc (n + 1) rest
        else
          match Sjson.parse l with
          | Ok j -> go ((n, j) :: acc) (n + 1) rest
          | Error e -> Error (Printf.sprintf "line %d: bad JSON: %s" n e))
  in
  go [] 1 (String.split_on_char '\n' content)

let unrecognised =
  Error
    "unrecognised input: expected a Chrome trace, a flight dump or an \
     NDJSON event stream"

(* Input auto-detection.  A Chrome trace is a single JSON document (an
   object wrapper), so the whole document is tried first; a document
   that is an array is nothing this reader knows.  Otherwise the input
   is a line stream whose first line is a flight header or a trace
   event. *)
let parse_string content =
  match
    Result.map
      (fun j -> (Sjson.member "traceEvents" j, j))
      (Sjson.parse content)
  with
  | Ok (Some (Sjson.List evs), _) ->
      Result.map
        (fun evs -> Trace_events evs)
        (events_of ~where:"event" (List.mapi (fun i j -> (i + 1, j)) evs))
  | Ok (Some _, _) -> Error "traceEvents is not a list"
  | Ok (None, Sjson.List _) -> unrecognised
  | _ -> (
      match json_lines content with
      | Error e -> Error e
      | Ok [] -> Error "empty input"
      | Ok ((_, first) :: rest as lines) ->
          if Sjson.member "flight" first <> None then
            Result.map
              (fun f_events ->
                Flight
                  {
                    f_reason =
                      Option.value ~default:"unknown" (str_mem "reason" first);
                    f_dropped =
                      Option.value ~default:0 (int_mem "dropped" first);
                    f_events;
                  })
              (events_of ~where:"line" rest)
          else if Sjson.member "ph" first <> None then
            Result.map
              (fun evs -> Trace_events evs)
              (events_of ~where:"line" lines)
          else unrecognised)

let parse_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | content -> parse_string content

(* -- span replay ------------------------------------------------------------ *)

(* Replay the per-tid B/E streams: [f open_spans ev] sees every event
   with the B events still open on its tid, innermost first.  A flight
   ring can evict a B while keeping its E, so an unmatched end is
   dropped rather than allowed to corrupt the enclosing frames.
   Returns the spans still open at the end, per tid. *)
let replay events f =
  let stacks : (int, event list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let open_spans =
        Option.value ~default:[] (Hashtbl.find_opt stacks ev.e_tid)
      in
      f open_spans ev;
      match ev.e_ph with
      | "B" -> Hashtbl.replace stacks ev.e_tid (ev :: open_spans)
      | "E" when List.exists (fun b -> b.e_name = ev.e_name) open_spans ->
          let rec drop = function
            | [] -> []
            | b :: rest when b.e_name = ev.e_name -> rest
            | _ :: rest -> drop rest
          in
          Hashtbl.replace stacks ev.e_tid (drop open_spans)
      | _ -> ())
    events;
  stacks

(* -- span statistics ------------------------------------------------------- *)

type span_stat = {
  s_name : string;
  s_count : int; (* completed instances *)
  s_open : int; (* B without a matching E inside the window *)
  s_total_us : float; (* completed + censored-at-window-end time *)
  s_min_us : float; (* shortest completed instance *)
  s_max_us : float; (* longest completed instance *)
  s_buckets : int array; (* log2 buckets of completed durations, in us *)
}

let nbuckets = 32

let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and v = ref v in
    while !v > 0 do
      b := !b + 1;
      v := !v lsr 1
    done;
    min !b (nbuckets - 1)
  end

(* Interpolating inside a log2 bucket can land anywhere in it; clamp to
   the observed range so a report never shows a duration that did not
   happen (one 9 s span reads 9 s at every quantile). *)
let span_quantile st q =
  Option.map
    (fun v -> Float.min st.s_max_us (Float.max st.s_min_us v) /. 1e6)
    (Metrics.quantile_of_buckets st.s_buckets q)

(* Spans still open when the window ends are censored: their elapsed
   time counts toward the total (it was genuinely spent inside the
   window) but not toward the duration histogram or the range. *)
let span_stats events ~t1 =
  let stats : (string, span_stat ref) Hashtbl.t = Hashtbl.create 32 in
  let get name =
    match Hashtbl.find_opt stats name with
    | Some r -> r
    | None ->
        let r =
          ref
            {
              s_name = name;
              s_count = 0;
              s_open = 0;
              s_total_us = 0.0;
              s_min_us = infinity;
              s_max_us = 0.0;
              s_buckets = Array.make nbuckets 0;
            }
        in
        Hashtbl.add stats name r;
        r
  in
  let open_at_end =
    replay events (fun open_spans ev ->
        if ev.e_ph = "E" then
          match List.find_opt (fun b -> b.e_name = ev.e_name) open_spans with
          | None -> ()
          | Some b ->
              let r = get ev.e_name in
              let dur = Float.max 0.0 (ev.e_ts -. b.e_ts) in
              let st = !r in
              let k = bucket_of (int_of_float dur) in
              st.s_buckets.(k) <- st.s_buckets.(k) + 1;
              r :=
                {
                  st with
                  s_count = st.s_count + 1;
                  s_total_us = st.s_total_us +. dur;
                  s_min_us = Float.min st.s_min_us dur;
                  s_max_us = Float.max st.s_max_us dur;
                })
  in
  Hashtbl.iter
    (fun _tid open_spans ->
      List.iter
        (fun b ->
          let r = get b.e_name in
          let st = !r in
          r :=
            {
              st with
              s_open = st.s_open + 1;
              s_total_us = st.s_total_us +. Float.max 0.0 (t1 -. b.e_ts);
            })
        open_spans)
    open_at_end;
  Hashtbl.fold (fun _ r acc -> !r :: acc) stats []
  |> List.sort (fun a b -> compare b.s_total_us a.s_total_us)

(* -- sample attribution ---------------------------------------------------- *)

type dim = { d_name : string; d_slices : (string * float) list }

let sample_event_name = "solver.sample"

let is_sample ev = ev.e_ph = "C" && ev.e_name = sample_event_name

(* The search context a sample belongs to: for each dimension, the
   innermost open span that names it and the argument naming the
   slice. *)
let context_spans =
  [
    ("stage", "portfolio.stage", "stage");
    ("cand", "mapper.candidate", "index");
    ("rung", "minimize.step", "bound");
  ]

let arg_string k j =
  match Sjson.member k j with
  | Some (Sjson.Str s) -> Some s
  | Some j -> Option.map string_of_int (Sjson.to_int_opt j)
  | None -> None

(* Attribute each inter-sample gap (per tid) to the phase dimension
   ("solve": samples only fire inside the search loop) and to the
   stage, candidate and rung of the spans open around the closing
   sample.  Returns the dimensions. *)
let sample_attribution events =
  let dims : (string, (string, float) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let add dim value dt =
    let tbl =
      match Hashtbl.find_opt dims dim with
      | Some t -> t
      | None ->
          let t = Hashtbl.create 8 in
          Hashtbl.add dims dim t;
          t
    in
    Hashtbl.replace tbl value
      (dt +. Option.value ~default:0.0 (Hashtbl.find_opt tbl value))
  in
  let last_sample : (int, float) Hashtbl.t = Hashtbl.create 8 in
  ignore
    (replay events (fun open_spans ev ->
         if is_sample ev then begin
           (match Hashtbl.find_opt last_sample ev.e_tid with
           | Some prev when ev.e_ts > prev ->
               let dt = ev.e_ts -. prev in
               add "phase" "solve" dt;
               List.iter
                 (fun (dim, span, arg) ->
                   match
                     List.find_opt (fun b -> b.e_name = span) open_spans
                   with
                   | Some b ->
                       Option.iter
                         (fun v -> add dim v dt)
                         (arg_string arg b.e_args)
                   | None -> ())
                 context_spans
           | _ -> ());
           Hashtbl.replace last_sample ev.e_tid ev.e_ts
         end));
  Hashtbl.fold
    (fun name tbl acc ->
      let slices =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
        |> List.sort (fun (_, a) (_, b) -> compare b a)
      in
      { d_name = name; d_slices = slices } :: acc)
    dims []
  |> List.sort (fun a b -> compare a.d_name b.d_name)

(* -- trajectory ------------------------------------------------------------ *)

type trajectory = {
  t_first_bound : int;
  t_best_bound : int;
  t_improvements : int;
  t_last_improvement_us : float;
  t_tail_us : float; (* window time after the last improvement *)
  t_tail_rung : int; (* the bound of the last step begun *)
}

(* The bounds the descent attempted, from its [minimize.step] begins in
   time order: every step counts, also one that ends before the solver
   takes a sample. *)
let trajectory events ~t0 ~t1 =
  let bounds =
    List.filter_map
      (fun ev ->
        if ev.e_ph = "B" && ev.e_name = "minimize.step" then
          Option.map (fun b -> (ev.e_ts, b)) (int_mem "bound" ev.e_args)
        else None)
      events
    |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
  in
  match bounds with
  | [] -> None
  | (ts0, b0) :: rest ->
      let first = b0 in
      let best = ref b0 in
      let improvements = ref 0 in
      let last_improvement = ref ts0 in
      let last_rung = ref b0 in
      List.iter
        (fun (ts, b) ->
          last_rung := b;
          if b < !best then begin
            best := b;
            incr improvements;
            last_improvement := ts
          end)
        rest;
      Some
        {
          t_first_bound = first;
          t_best_bound = !best;
          t_improvements = !improvements;
          t_last_improvement_us = !last_improvement -. t0;
          t_tail_us = t1 -. !last_improvement;
          t_tail_rung = !last_rung;
        }

(* -- the report ------------------------------------------------------------ *)

type report = {
  r_source : string;
  r_reason : string option;
  r_dropped : int;
  r_num_events : int;
  r_wall_us : float; (* recorded window: max ts - min ts *)
  r_busy_us : float; (* sum over tids of per-tid recorded span *)
  r_tids : int;
  r_spans : span_stat list;
  r_dims : dim list;
  r_coverage : float; (* attributed phase time / busy time *)
  r_trajectory : trajectory option;
}

let analyze_events ~source ?reason ?(dropped = 0) events =
  let ts = List.map (fun e -> e.e_ts) events in
  let t0 = List.fold_left Float.min infinity ts
  and t1 = List.fold_left Float.max neg_infinity ts in
  let t0 = if t0 = infinity then 0.0 else t0
  and t1 = if t1 = neg_infinity then 0.0 else t1 in
  let module IM = Map.Make (Int) in
  let per_tid =
    List.fold_left
      (fun m e ->
        IM.update e.e_tid
          (function
            | None -> Some (e.e_ts, e.e_ts)
            | Some (lo, hi) ->
                Some (Float.min lo e.e_ts, Float.max hi e.e_ts))
          m)
      IM.empty events
  in
  let busy =
    IM.fold (fun _ (lo, hi) acc -> acc +. (hi -. lo)) per_tid 0.0
  in
  let spans = span_stats events ~t1 in
  let dims = sample_attribution events in
  (* The phase dimension merges both signals: sampled time is "solve"
     by construction; completed mapper phase spans supply the rest
     (encode, warm_start, reconstruct, verify).  mapper.solve spans are
     *not* added on top — the samples inside them already account for
     that time, and on a flight dump the span's B is usually evicted
     anyway. *)
  let phase_extra =
    List.filter_map
      (fun st ->
        match st.s_name with
        | "mapper.encode" -> Some ("encode", st.s_total_us)
        | "mapper.warm_start" -> Some ("warm_start", st.s_total_us)
        | "mapper.reconstruct" -> Some ("reconstruct", st.s_total_us)
        | "mapper.verify" -> Some ("verify", st.s_total_us)
        | _ -> None)
      spans
  in
  let solve_from_spans =
    List.fold_left
      (fun acc st ->
        if st.s_name = "mapper.solve" then acc +. st.s_total_us else acc)
      0.0 spans
  in
  let dims =
    let upgrade d =
      if d.d_name <> "phase" then d
      else
        let sampled_solve =
          Option.value ~default:0.0 (List.assoc_opt "solve" d.d_slices)
        in
        let solve = Float.max sampled_solve solve_from_spans in
        let slices =
          ("solve", solve)
          :: List.remove_assoc "solve" d.d_slices
          @ phase_extra
        in
        {
          d with
          d_slices =
            List.sort (fun (_, a) (_, b) -> compare b a) slices;
        }
    in
    if List.exists (fun d -> d.d_name = "phase") dims then
      List.map upgrade dims
    else if phase_extra <> [] || solve_from_spans > 0.0 then
      {
        d_name = "phase";
        d_slices =
          List.sort
            (fun (_, a) (_, b) -> compare b a)
            (if solve_from_spans > 0.0 then
               ("solve", solve_from_spans) :: phase_extra
             else phase_extra);
      }
      :: dims
    else dims
  in
  let phase_total =
    match List.find_opt (fun d -> d.d_name = "phase") dims with
    | Some d -> List.fold_left (fun acc (_, v) -> acc +. v) 0.0 d.d_slices
    | None -> 0.0
  in
  {
    r_source = source;
    r_reason = reason;
    r_dropped = dropped;
    r_num_events = List.length events;
    r_wall_us = t1 -. t0;
    r_busy_us = busy;
    r_tids = IM.cardinal per_tid;
    r_spans = spans;
    r_dims = dims;
    r_coverage = (if busy > 0.0 then phase_total /. busy else 0.0);
    r_trajectory = trajectory events ~t0 ~t1;
  }

let analyze = function
  | Flight { f_reason; f_dropped; f_events } ->
      analyze_events ~source:"flight dump" ~reason:f_reason
        ~dropped:f_dropped f_events
  | Trace_events events -> analyze_events ~source:"trace" events

let s_of_us us = us /. 1e6

(* -- run summary ------------------------------------------------------------ *)

let mapper_phases = [ "encode"; "warm_start"; "solve"; "reconstruct"; "verify" ]

(* An in-process event, in the shape the parser produces from its JSON. *)
let of_trace_event (ev : Qxm_obs.Trace.event) =
  let arg : Qxm_obs.Trace.arg -> Sjson.t = function
    | Int i -> Num (float_of_int i)
    | Float f -> Num f
    | Bool b -> Bool b
    | Str s -> Str s
  in
  {
    e_name = ev.name;
    e_ph = (match ev.ph with `B -> "B" | `E -> "E" | `I -> "i" | `C -> "C");
    e_ts = ev.ts_us;
    e_tid = ev.tid;
    e_args = Obj (List.map (fun (k, v) -> (k, arg v)) ev.args);
  }

type run = {
  u_phases : (string * float) list;
  u_trajectory : (float * int) list;
}

let fold_run ~t0_us trace_events =
  let events = List.map of_trace_event trace_events in
  let slices =
    match
      List.find_opt
        (fun d -> d.d_name = "phase")
        (analyze_events ~source:"run" events).r_dims
    with
    | Some d -> d.d_slices
    | None -> []
  in
  let incumbents =
    List.filter_map
      (fun ev ->
        if ev.e_ph = "i" && ev.e_name = "minimize.incumbent" then
          Option.map (fun c -> (ev.e_ts, c)) (int_mem "cost" ev.e_args)
        else None)
      events
    |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
  in
  let _, improvements =
    List.fold_left
      (fun (best, acc) (ts, c) ->
        if c < best then (c, (s_of_us (ts -. t0_us), c) :: acc)
        else (best, acc))
      (max_int, []) incumbents
  in
  {
    u_phases =
      List.map
        (fun p ->
          (p, s_of_us (Option.value ~default:0.0 (List.assoc_opt p slices))))
        mapper_phases;
    u_trajectory = List.rev improvements;
  }

(* -- trace check ----------------------------------------------------------- *)

type check = { c_events : int; c_workers : int; c_errors : string list }

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let check ?(min_workers = 0) ?(require = []) ?(samples = false)
    ?(request_ids = false) input =
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let events =
    match input with Trace_events evs | Flight { f_events = evs; _ } -> evs
  in
  (* per tid: open span names (innermost first) and the last timestamp *)
  let workers : (int, string list ref * float ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let nsamples = ref 0 in
  (* Request ids: svc.request B events register their "id"; every other
     "request" reference must resolve to one.  The Chrome export groups
     events by tid, so a reference can precede its registration: resolve
     after the pass. *)
  let known_ids = Hashtbl.create 8 and id_refs = ref [] in
  List.iteri
    (fun i ev ->
      let n = i + 1 in
      let stack, last_ts =
        match Hashtbl.find_opt workers ev.e_tid with
        | Some w -> w
        | None ->
            let w = (ref [], ref neg_infinity) in
            Hashtbl.add workers ev.e_tid w;
            w
      in
      if ev.e_ts < !last_ts then
        error "event %d: tid %d timestamp goes backwards (%.1f < %.1f)" n
          ev.e_tid ev.e_ts !last_ts;
      last_ts := ev.e_ts;
      if samples && is_sample ev then begin
        incr nsamples;
        if num_mem "conflicts" ev.e_args = None then
          error "event %d: solver.sample without a conflicts arg" n
      end;
      (if request_ids && has_prefix "svc." ev.e_name then
         if ev.e_name = "svc.request" && ev.e_ph = "B" then
           match str_mem "id" ev.e_args with
           | Some id -> Hashtbl.replace known_ids id ()
           | None -> error "event %d: svc.request span without an id arg" n
         else
           match str_mem "request" ev.e_args with
           | Some id -> id_refs := (n, ev.e_name, id) :: !id_refs
           | None when ev.e_name = "svc.solve" && ev.e_ph = "B" ->
               error "event %d: svc.solve span without a request arg" n
           | None -> ());
      match (ev.e_ph, !stack) with
      | "B", s -> stack := ev.e_name :: s
      | "E", top :: rest when top = ev.e_name -> stack := rest
      | "E", top :: _ ->
          error "event %d: tid %d closes span %S but %S is innermost" n
            ev.e_tid ev.e_name top
      | "E", [] ->
          error "event %d: tid %d closes span %S with none open" n ev.e_tid
            ev.e_name
      | _ -> ())
    events;
  Hashtbl.iter
    (fun tid (stack, _) ->
      List.iter (error "tid %d: span %S never closed" tid) !stack)
    workers;
  let nworkers = Hashtbl.length workers in
  if nworkers < min_workers then
    error "only %d distinct worker tid(s), need at least %d" nworkers
      min_workers;
  List.iter
    (fun p ->
      if not (List.exists (fun ev -> has_prefix p ev.e_name) events) then
        error "no event with name prefix %S" p)
    require;
  if samples && !nsamples = 0 then
    error "no solver.sample counter events found (--samples)";
  List.iter
    (fun (n, name, id) ->
      if not (Hashtbl.mem known_ids id) then
        error
          "event %d: %s references request id %S never registered by an \
           svc.request span"
          n name id)
    (List.rev !id_refs);
  if events = [] then error "no trace events found";
  {
    c_events = List.length events;
    c_workers = nworkers;
    c_errors = List.rev !errors;
  }

(* -- rendering ------------------------------------------------------------- *)

let render_text ?(top = 10) r =
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "source: %s%s\n" r.r_source
    (match r.r_reason with
    | Some reason -> Printf.sprintf " (reason: %s)" reason
    | None -> "");
  pf "events: %d%s, %d worker%s\n" r.r_num_events
    (if r.r_dropped > 0 then
       Printf.sprintf " (+%d dropped from the ring)" r.r_dropped
     else "")
    r.r_tids
    (if r.r_tids = 1 then "" else "s");
  pf "recorded wall: %.3fs (busy across workers: %.3fs)\n"
    (s_of_us r.r_wall_us) (s_of_us r.r_busy_us);
  pf "attributed: %.1f%% of busy time\n" (100.0 *. r.r_coverage);
  (match r.r_trajectory with
  | None -> ()
  | Some t ->
      pf "trajectory: bound %d -> %d (%d improvement%s), last at t=%.1fs%s\n"
        t.t_first_bound t.t_best_bound t.t_improvements
        (if t.t_improvements = 1 then "" else "s")
        (s_of_us t.t_last_improvement_us)
        (if t.t_tail_us > 0.0 then
           Printf.sprintf ", then %.1fs grinding at rung F=%d"
             (s_of_us t.t_tail_us) t.t_tail_rung
         else ""));
  List.iter
    (fun d ->
      pf "\nby %s:\n" d.d_name;
      let total =
        List.fold_left (fun acc (_, v) -> acc +. v) 0.0 d.d_slices
      in
      List.iter
        (fun (k, v) ->
          pf "  %-24s %9.3fs  %5.1f%%\n" k (s_of_us v)
            (if total > 0.0 then 100.0 *. v /. total else 0.0))
        d.d_slices)
    r.r_dims;
  let spans =
    List.filteri (fun i _ -> i < top) r.r_spans
  in
  if spans <> [] then begin
    pf "\nhot spans (top %d by total time):\n" (List.length spans);
    pf "  %-26s %9s %7s %6s %9s %9s %9s\n" "span" "total" "count" "open"
      "p50" "p90" "p99";
    List.iter
      (fun st ->
        let q p =
          match span_quantile st p with
          | Some v -> Printf.sprintf "%.4fs" v
          | None -> "-"
        in
        pf "  %-26s %8.3fs %7d %6d %9s %9s %9s\n" st.s_name
          (s_of_us st.s_total_us) st.s_count st.s_open (q 0.5) (q 0.9)
          (q 0.99))
      spans
  end;
  Buffer.contents buf

let json_of_report ?(top = 10) r =
  let open Sjson in
  let dim d =
    Obj
      [
        ("name", Str d.d_name);
        ( "slices",
          List
            (List.map
               (fun (k, v) ->
                 Obj [ ("key", Str k); ("seconds", Num (s_of_us v)) ])
               d.d_slices) );
      ]
  in
  let span st =
    let q p =
      match span_quantile st p with Some v -> Num v | None -> Null
    in
    Obj
      [
        ("name", Str st.s_name);
        ("total_s", Num (s_of_us st.s_total_us));
        ("count", Num (float_of_int st.s_count));
        ("open", Num (float_of_int st.s_open));
        ("p50_s", q 0.5);
        ("p90_s", q 0.9);
        ("p99_s", q 0.99);
      ]
  in
  Obj
    [
      ("source", Str r.r_source);
      ( "reason",
        match r.r_reason with Some s -> Str s | None -> Null );
      ("dropped", Num (float_of_int r.r_dropped));
      ("events", Num (float_of_int r.r_num_events));
      ("workers", Num (float_of_int r.r_tids));
      ("wall_s", Num (s_of_us r.r_wall_us));
      ("busy_s", Num (s_of_us r.r_busy_us));
      ("coverage", Num r.r_coverage);
      ( "trajectory",
        match r.r_trajectory with
        | None -> Null
        | Some t ->
            Obj
              [
                ("first_bound", Num (float_of_int t.t_first_bound));
                ("best_bound", Num (float_of_int t.t_best_bound));
                ("improvements", Num (float_of_int t.t_improvements));
                ("last_improvement_s", Num (s_of_us t.t_last_improvement_us));
                ("tail_s", Num (s_of_us t.t_tail_us));
                ("tail_rung", Num (float_of_int t.t_tail_rung));
              ] );
      ("dimensions", List (List.map dim r.r_dims));
      ( "spans",
        List
          (List.map span (List.filteri (fun i _ -> i < top) r.r_spans)) );
    ]

let render_json ?top r = Sjson.print (json_of_report ?top r)

