(* Offline analysis of the observability artifacts: ingest a trace
   (Chrome JSON or NDJSON), a flight-recorder dump, or a bench JSON
   stream; explain where the time went, check a trace's well-formedness,
   and gate a bench run against its baseline.  This is the only reader
   of these formats in the repository, so the event schema lives here.

   The analysis leans on two complementary signals:

   - Spans (B/E pairs) give exact durations for everything that
     completed inside the recorded window: mapper phases, minimize
     steps, portfolio stages, solver solves.
   - Counter samples ("solver.sample" C events, one per 64 conflicts)
     carry the active context as a label ("stage=… cand=… rung=…").
     Attributing each inter-sample gap to the labels of the
     sample that closes it recovers a wall-time breakdown even when the
     enclosing spans never closed — which is exactly the shape of a
     flight dump taken mid-solve or of a run killed by the watchdog.

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

type bench_row = {
  b_key : string; (* "[suite/]benchmark -jN": the gate's join key and tag *)
  b_wall : float;
  b_optimal : bool;
  b_failed : bool;
  b_timed_out : bool option; (* None: a baseline predating the field *)
  b_stages : (string * float) list; (* stage name -> seconds *)
  b_counters : (string * float) list;
}

type input =
  | Flight of { f_reason : string; f_dropped : int; f_events : event list }
  | Trace_events of event list
  | Bench_rows of bench_row list

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

let stage_prefix = "stage_"
let stage_suffix = "_s"

let bench_row_of_json j =
  match (str_mem "benchmark" j, int_mem "jobs" j, num_mem "wall_s" j) with
  | Some name, Some jobs, Some b_wall ->
      let fields = match j with Sjson.Obj kvs -> kvs | _ -> [] in
      let stages, counters =
        List.fold_left
          (fun (stages, counters) (k, v) ->
            match v with
            | Sjson.Num f ->
                let pl = String.length stage_prefix
                and sl = String.length stage_suffix in
                if
                  String.length k > pl + sl
                  && String.sub k 0 pl = stage_prefix
                  && String.sub k (String.length k - sl) sl = stage_suffix
                then
                  let stage =
                    String.sub k pl (String.length k - pl - sl)
                  in
                  ((stage, f) :: stages, counters)
                else if k = "wall_s" then (stages, counters)
                else (stages, (k, f) :: counters)
            | _ -> (stages, counters))
          ([], []) fields
      in
      let flag k = Option.bind (Sjson.member k j) Sjson.to_bool_opt in
      (* a missing suite is "quick", the only suite older baselines
         had; jobs is part of the key because the quick suite emits
         each benchmark at two worker counts *)
      let suite = Option.value ~default:"quick" (str_mem "suite" j) in
      Some
        {
          b_key =
            Printf.sprintf "%s%s -j%d"
              (if suite = "quick" then "" else suite ^ "/")
              name jobs;
          b_wall;
          b_optimal = flag "optimal" = Some true;
          b_failed = flag "failed" = Some true;
          b_timed_out = flag "timed_out";
          b_stages = List.rev stages;
          b_counters = List.rev counters;
        }
  | _ -> None

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

(* Input auto-detection.  A Chrome trace and a bench emission are both
   single JSON documents (an object wrapper and an array of rows; bench
   rows carry trailing commas that defeat line-at-a-time parsing), so
   the whole document is tried first; otherwise the input is a line
   stream whose first line is a flight header, a trace event, or a
   bench record. *)
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
  | Ok (None, Sjson.List rows) ->
      Ok (Bench_rows (List.filter_map bench_row_of_json rows))
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
          else if Sjson.member "benchmark" first <> None then
            Ok
              (Bench_rows
                 (List.filter_map (fun (_, j) -> bench_row_of_json j) lines))
          else
            Error
              "unrecognised input: expected a Chrome trace, a flight dump, \
               an NDJSON event stream, or bench JSON lines")

let parse_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | content -> parse_string content

(* -- span statistics ------------------------------------------------------- *)

type span_stat = {
  s_name : string;
  s_count : int; (* completed instances *)
  s_open : int; (* B without a matching E inside the window *)
  s_total_us : float; (* completed + censored-at-window-end time *)
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

let span_quantile st q =
  Option.map
    (fun v -> v /. 1e6)
    (Metrics.quantile_of_buckets st.s_buckets q)

(* Replay the per-tid B/E streams.  Spans still open when the window
   ends are censored: their elapsed time counts toward the total (it
   was genuinely spent inside the window) but not toward the duration
   histogram. *)
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
              s_buckets = Array.make nbuckets 0;
            }
        in
        Hashtbl.add stats name r;
        r
  in
  let stacks : (int, (string * float) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.add stacks tid s;
        s
  in
  List.iter
    (fun ev ->
      match ev.e_ph with
      | "B" -> (
          let s = stack ev.e_tid in
          s := (ev.e_name, ev.e_ts) :: !s)
      | "E" -> (
          let s = stack ev.e_tid in
          (* Pop to the matching begin; a flight ring can evict a B
             while keeping its E, so an unmatched end is dropped rather
             than allowed to corrupt the enclosing frames. *)
          match List.assoc_opt ev.e_name !s with
          | None -> ()
          | Some t_begin ->
              let rec drop = function
                | [] -> []
                | (n, _) :: rest when n = ev.e_name -> rest
                | _ :: rest -> drop rest
              in
              s := drop !s;
              let r = get ev.e_name in
              let dur = Float.max 0.0 (ev.e_ts -. t_begin) in
              let st = !r in
              st.s_buckets.(bucket_of (int_of_float dur)) <-
                st.s_buckets.(bucket_of (int_of_float dur)) + 1;
              r :=
                {
                  st with
                  s_count = st.s_count + 1;
                  s_total_us = st.s_total_us +. dur;
                })
      | _ -> ())
    events;
  Hashtbl.iter
    (fun _tid s ->
      List.iter
        (fun (name, t_begin) ->
          let r = get name in
          let st = !r in
          r :=
            {
              st with
              s_open = st.s_open + 1;
              s_total_us = st.s_total_us +. Float.max 0.0 (t1 -. t_begin);
            })
        !s)
    stacks;
  Hashtbl.fold (fun _ r acc -> !r :: acc) stats []
  |> List.sort (fun a b -> compare b.s_total_us a.s_total_us)

(* -- sample attribution ---------------------------------------------------- *)

(* "stage=ladder cand=0 rung=61" -> [(stage, ladder); ...] *)
let parse_label label =
  String.split_on_char ' ' label
  |> List.filter_map (fun kv ->
         match String.index_opt kv '=' with
         | Some i when i > 0 ->
             Some
               ( String.sub kv 0 i,
                 String.sub kv (i + 1) (String.length kv - i - 1) )
         | _ -> None)

type dim = { d_name : string; d_slices : (string * float) list }

let sample_event_name = "solver.sample"

let is_sample ev = ev.e_ph = "C" && ev.e_name = sample_event_name

(* Attribute each inter-sample gap (per tid) to the label components of
   the closing sample, plus the phase dimension ("solve": samples only
   fire inside the search loop).  Returns the dimensions and the total
   attributed time. *)
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
  let total = ref 0.0 in
  List.iter
    (fun ev ->
      if is_sample ev then begin
        (match Hashtbl.find_opt last_sample ev.e_tid with
        | Some prev when ev.e_ts > prev ->
            let dt = ev.e_ts -. prev in
            total := !total +. dt;
            add "phase" "solve" dt;
            let label =
              Option.value ~default:"" (str_mem "label" ev.e_args)
            in
            let kvs = parse_label label in
            List.iter (fun (k, v) -> add k v dt) kvs;
            (* A sample inside a minimize step always knows its bound;
               surface it as the rung dimension even when the label
               path came from elsewhere. *)
            if not (List.mem_assoc "rung" kvs) then
              Option.iter
                (fun b -> add "rung" (string_of_int b) dt)
                (int_mem "bound" ev.e_args)
        | _ -> ());
        Hashtbl.replace last_sample ev.e_tid ev.e_ts
      end)
    events;
  let dim_list =
    Hashtbl.fold
      (fun name tbl acc ->
        let slices =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
          |> List.sort (fun (_, a) (_, b) -> compare b a)
        in
        { d_name = name; d_slices = slices } :: acc)
      dims []
    |> List.sort (fun a b -> compare a.d_name b.d_name)
  in
  (dim_list, !total)

(* -- trajectory ------------------------------------------------------------ *)

type trajectory = {
  t_first_bound : int;
  t_best_bound : int;
  t_improvements : int;
  t_last_improvement_us : float;
  t_tail_us : float; (* window time after the last improvement *)
  t_tail_rung : int option; (* the rung being ground when it ended *)
}

let trajectory events ~t0 ~t1 =
  let bounds =
    List.filter_map
      (fun ev ->
        if is_sample ev then
          Option.map (fun b -> (ev.e_ts, b)) (int_mem "bound" ev.e_args)
        else None)
      events
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
          t_tail_rung = Some !last_rung;
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
  let dims, sampled = sample_attribution events in
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
  let _ = sampled in
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
  | Bench_rows _ -> invalid_arg "Profile.analyze: bench input; use gate"

(* -- trace check ----------------------------------------------------------- *)

type check = { c_events : int; c_workers : int; c_errors : string list }

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let check ?(min_workers = 0) ?(require = []) ?(samples = false)
    ?(request_ids = false) input =
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let events =
    match input with
    | Trace_events evs | Flight { f_events = evs; _ } -> evs
    | Bench_rows _ -> []
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
  (match input with
  | Bench_rows _ -> error "bench JSON holds no trace events"
  | _ -> if events = [] then error "no trace events found");
  {
    c_events = List.length events;
    c_workers = nworkers;
    c_errors = List.rev !errors;
  }

(* -- bench gate ------------------------------------------------------------ *)

(* Absolute minor-words-per-propagation ceiling used when the baseline
   predates the allocation counters.  The arena solver sits well under
   one word per propagation on every quick-suite row; 8 leaves room for
   noise while still catching a boxed hot loop (tens of words/prop). *)
let absolute_words_per_prop = 8.0

(* Rows below this much propagation work are too noisy to gate on
   throughput or allocation. *)
let min_gated_propagations = 100_000.0

(* Counters whose growth plausibly explains a slowdown; gate noise like
   seeds or qubit counts out of the blame list. *)
let blameable_counter name =
  match name with
  | "conflicts" | "decisions" | "propagations" | "binary_propagations"
  | "restarts" | "minor_words" | "solves" | "subsets_tried" ->
      true
  | _ ->
      (* learned-clause maintenance counters are also fair game *)
      List.exists
        (fun prefix -> has_prefix prefix name)
        [ "glue_"; "subsumed"; "minimized"; "vivified" ]

(* The entry of [fresh] whose [score] against its [base] value is
   highest (the first such on ties): the stage or counter that grew
   most.  Entries missing from [base] are skipped. *)
let biggest_growth ~score base fresh =
  List.fold_left
    (fun acc (name, nv) ->
      match List.assoc_opt name base with
      | None -> acc
      | Some bv -> (
          match (score name bv nv, acc) with
          | Some s, Some (_, _, _, best) when s <= best -> acc
          | Some s, _ -> Some (name, bv, nv, s)
          | None, _ -> acc))
    None fresh

type gate = { g_lines : string list; g_regressions : int }

let gate_rows base fresh =
  let lines = ref [] and regressions = ref 0 in
  let line fmt = Printf.ksprintf (fun l -> lines := l :: !lines) fmt in
  let fail fmt =
    incr regressions;
    line fmt
  in
  let counter r k = List.assoc_opt k r.b_counters in
  List.iter
    (fun b ->
      let tag = b.b_key in
      let fresh_row = List.find_opt (fun f -> f.b_key = b.b_key) fresh in
      if (not b.b_optimal) || b.b_timed_out = Some true then
        (* informational: the baseline itself was an anytime row, whose
           cost and wall time are timing-dependent — but a row that
           newly finishes within budget is worth reporting *)
        match fresh_row with
        | Some f when f.b_optimal && f.b_timed_out <> Some true ->
            line
              "improved   %-24s newly finishes within budget (%.3fs, was \
               timing out)"
              tag f.b_wall
        | _ -> line "unstable   %-24s baseline not optimal, not gated" tag
      else
        match fresh_row with
        | None -> fail "REGRESSED  %-24s missing from fresh run" tag
        | Some f when f.b_failed ->
            fail "REGRESSED  %-24s was optimal, now failed" tag
        | Some f when f.b_timed_out = Some true ->
            fail "REGRESSED  %-24s newly times out (was %.3fs)" tag b.b_wall
        | Some f when not f.b_optimal ->
            fail "REGRESSED  %-24s optimal flipped true -> false" tag
        | Some f ->
            let allowed = (b.b_wall *. 1.25) +. 0.25 in
            if f.b_wall > allowed then begin
              fail
                "REGRESSED  %-24s wall %.3fs > allowed %.3fs (baseline \
                 %.3fs)"
                tag f.b_wall allowed b.b_wall;
              (match
                 biggest_growth b.b_stages f.b_stages
                   ~score:(fun _ bv nv -> Some (nv -. bv))
               with
              | Some (stage, _, _, d) when d > 0.0 ->
                  line "           %-24s biggest stage growth: %s (+%.3fs)"
                    tag stage d
              | _ -> ());
              match
                biggest_growth b.b_counters f.b_counters
                  ~score:(fun name bv nv ->
                    if blameable_counter name && bv > 0.0 && nv > bv then
                      Some (nv /. bv)
                    else None)
              with
              | Some (name, bv, nv, ratio) ->
                  line
                    "           %-24s biggest counter growth: %s x%.2f (%.0f \
                     -> %.0f)"
                    tag name ratio bv nv
              | None -> ()
            end
            else
              line "ok         %-24s %.3fs (baseline %.3fs)" tag f.b_wall
                b.b_wall;
            let gated =
              match (counter b "propagations", counter f "propagations") with
              | Some bn, Some fn ->
                  bn >= min_gated_propagations && fn >= min_gated_propagations
              | _ -> false
            in
            if gated then begin
              (match (counter b "props_per_sec", counter f "props_per_sec") with
              | Some bp, Some fp when bp > 0.0 ->
                  if fp < bp /. 1.5 then
                    fail
                      "REGRESSED  %-24s props/sec %.2fM < %.2fM (baseline \
                       %.2fM / 1.5)"
                      tag (fp /. 1e6) (bp /. 1.5 /. 1e6) (bp /. 1e6)
                  else
                    line "           %-24s props/sec %.2fx baseline" tag
                      (fp /. bp)
              | _ -> ());
              match (counter f "minor_words", counter f "propagations") with
              | Some mw, Some props when props > 0.0 ->
                  let words = mw /. props in
                  let allowed, origin =
                    match
                      (counter b "minor_words", counter b "propagations")
                    with
                    | Some bmw, Some bprops when bprops > 0.0 ->
                        ((bmw /. bprops *. 1.5) +. 0.5, "baseline * 1.5 + 0.5")
                    | _ -> (absolute_words_per_prop, "absolute ceiling")
                  in
                  if words > allowed then
                    fail "REGRESSED  %-24s minor words/prop %.2f > %.2f (%s)"
                      tag words allowed origin
              | _ -> ()
            end)
    base;
  { g_lines = List.rev !lines; g_regressions = !regressions }

let gate base fresh =
  match (base, fresh) with
  | Bench_rows [], _ -> Error "no bench records in the baseline"
  | Bench_rows base, Bench_rows fresh -> Ok (gate_rows base fresh)
  | _ -> Error "the gate needs two bench JSON files (BASE NEW)"

(* -- rendering ------------------------------------------------------------- *)

let s_of_us us = us /. 1e6

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
        (match t.t_tail_rung with
        | Some rung when t.t_tail_us > 0.0 ->
            Printf.sprintf ", then %.1fs grinding at rung F=%d"
              (s_of_us t.t_tail_us) rung
        | _ -> ""));
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
                ( "tail_rung",
                  match t.t_tail_rung with
                  | Some rung -> Num (float_of_int rung)
                  | None -> Null );
              ] );
      ("dimensions", List (List.map dim r.r_dims));
      ( "spans",
        List
          (List.map span (List.filteri (fun i _ -> i < top) r.r_spans)) );
    ]

let render_json ?top r = Sjson.print (json_of_report ?top r)

