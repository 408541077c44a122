let dumps_total = Metrics.counter "obs.flight_dumps"
let dump_errors = Metrics.counter "obs.flight_dump_errors"

type ring = {
  data : Trace.event array;
  mutable start : int;
  mutable len : int;
  mutable dropped : int;
}

type state = { ring : ring; path : string }

let on = Atomic.make false
let lock = Mutex.create ()
let state : state option ref = ref None

let enabled () = Atomic.get on

(* A dummy event fills unwritten slots; [len] guards reads. *)
let dummy : Trace.event =
  { Trace.ph = `I; name = ""; ts_us = 0.0; tid = 0; args = [] }

let record ev =
  if Atomic.get on then begin
    Mutex.lock lock;
    (match !state with
    | None -> ()
    | Some { ring = r; _ } ->
        let cap = Array.length r.data in
        if r.len < cap then begin
          r.data.((r.start + r.len) mod cap) <- ev;
          r.len <- r.len + 1
        end
        else begin
          r.data.(r.start) <- ev;
          r.start <- (r.start + 1) mod cap;
          r.dropped <- r.dropped + 1
        end);
    Mutex.unlock lock
  end

let enable ?(capacity = 65536) ~path () =
  Mutex.lock lock;
  state :=
    Some
      {
        ring =
          { data = Array.make (max 16 capacity) dummy; start = 0; len = 0;
            dropped = 0 };
        path;
      };
  Mutex.unlock lock;
  Atomic.set on true;
  Trace.set_sink (Some record)

let disable () =
  Atomic.set on false;
  Trace.set_sink None

let write_atomic path contents =
  let tmp = path ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let written =
        Unix.write_substring fd contents 0 (String.length contents)
      in
      if written <> String.length contents then failwith "short write";
      Unix.fsync fd);
  Sys.rename tmp path

let dump ~reason () =
  if not (Atomic.get on) then None
  else begin
    (* Snapshot under the lock, render and write outside it. *)
    Mutex.lock lock;
    let snap =
      match !state with
      | None -> None
      | Some { ring = r; path } ->
          let cap = Array.length r.data in
          let evs =
            List.init r.len (fun i -> r.data.((r.start + i) mod cap))
          in
          Some (evs, r.dropped, path)
    in
    Mutex.unlock lock;
    match snap with
    | None -> None
    | Some (ring_events, dropped, path) -> (
        try
          let all =
            List.stable_sort
              (fun (a : Trace.event) b -> compare a.ts_us b.ts_us)
              ring_events
          in
          let buf = Buffer.create 65536 in
          Buffer.add_string buf
            (Printf.sprintf
               "{\"flight\": 1, \"reason\": \"%s\", \"dumped_ts_us\": %.1f, \
                \"dropped\": %d, \"events\": %d}\n"
               (Trace.json_escape reason) (Trace.now_us ()) dropped
               (List.length all));
          List.iter
            (fun ev ->
              Buffer.add_string buf (Trace.event_json ev);
              Buffer.add_char buf '\n')
            all;
          write_atomic path (Buffer.contents buf);
          Metrics.incr dumps_total;
          Some path
        with _ ->
          Metrics.incr dump_errors;
          None)
  end
