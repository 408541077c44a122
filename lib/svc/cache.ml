module Metrics = Qxm_obs.Metrics

let hits_mem = Metrics.counter "svc.cache_hits_mem"
let hits_disk = Metrics.counter "svc.cache_hits_disk"
let misses = Metrics.counter "svc.cache_misses"
let stores = Metrics.counter "svc.cache_stores"
let store_errors = Metrics.counter "svc.cache_store_errors"
let evictions = Metrics.counter "svc.cache_evictions"
let quarantined = Metrics.counter "svc.cache_quarantined"

let magic = "QXMCACHE1"

type t = {
  lock : Mutex.t;
  dir : string option;
  mem_capacity : int;
  mem : (string, string * int ref) Hashtbl.t;  (* key -> payload, LRU tick *)
  mutable tick : int;
  mutable opened_quarantined : int;
  mutable quarantine_seq : int;
}

let entry_file key = key ^ ".entry"
let entry_path dir key = Filename.concat dir (entry_file key)
let quarantine_dir dir = Filename.concat dir "quarantine"

(* -- disk format ---------------------------------------------------------- *)

let encode payload =
  Printf.sprintf "%s %s %d\n%s" magic (Chash.digest payload)
    (String.length payload) payload

(* Validate a whole entry file's contents; the payload on success, a
   reason on any malformation (truncation, bit flips, foreign bytes). *)
let decode contents =
  match String.index_opt contents '\n' with
  | None -> Error "no header line"
  | Some nl -> (
      let header = String.sub contents 0 nl in
      match String.split_on_char ' ' header with
      | [ m; digest; len ] -> (
          if m <> magic then Error "bad magic"
          else
            match int_of_string_opt len with
            | None -> Error "malformed length"
            | Some len ->
                let have = String.length contents - nl - 1 in
                if have <> len then
                  Error
                    (Printf.sprintf "truncated payload (%d of %d bytes)" have
                       len)
                else
                  let payload = String.sub contents (nl + 1) len in
                  if Chash.digest payload <> digest then
                    Error "checksum mismatch"
                  else Ok payload)
      | _ -> Error "malformed header")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* -- quarantine ----------------------------------------------------------- *)

(* Move a damaged file aside, preserving it for inspection.  Unique
   destination names survive repeated quarantines of same-named files
   across restarts. *)
let quarantine_file t ~dir path =
  let qdir = quarantine_dir dir in
  (try Unix.mkdir qdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  t.quarantine_seq <- t.quarantine_seq + 1;
  let dest =
    Filename.concat qdir
      (Printf.sprintf "%s.%d.%d" (Filename.basename path) (Unix.getpid ())
         t.quarantine_seq)
  in
  (try Sys.rename path dest
   with Sys_error _ -> ( try Sys.remove path with Sys_error _ -> ()));
  Metrics.incr quarantined

(* -- recovery scan -------------------------------------------------------- *)

let is_tmp name =
  String.length name >= 4
  && (String.sub name 0 4 = ".tmp"
     || Filename.check_suffix name ".tmp")

let recover t dir =
  let names = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      if not (Sys.is_directory path) then
        if is_tmp name then begin
          (* a write that never reached its rename: the crash artifact *)
          quarantine_file t ~dir path;
          t.opened_quarantined <- t.opened_quarantined + 1
        end
        else if Filename.check_suffix name ".entry" then
          match decode (read_file path) with
          | Ok _ -> ()
          | Error _ | (exception Sys_error _) | (exception End_of_file) ->
              quarantine_file t ~dir path;
              t.opened_quarantined <- t.opened_quarantined + 1)
    names

(* -- construction --------------------------------------------------------- *)

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?dir ?(mem_capacity = 128) () =
  if mem_capacity <= 0 then
    invalid_arg "Cache.create: mem_capacity must be positive";
  let t =
    {
      lock = Mutex.create ();
      dir;
      mem_capacity;
      mem = Hashtbl.create 64;
      tick = 0;
      opened_quarantined = 0;
      quarantine_seq = 0;
    }
  in
  Option.iter
    (fun d ->
      mkdir_p d;
      recover t d)
    dir;
  t

let quarantined_on_open t = t.opened_quarantined
let dir t = t.dir

(* -- memory tier (caller holds the lock) ---------------------------------- *)

let touch t tick_ref =
  t.tick <- t.tick + 1;
  tick_ref := t.tick

let mem_insert t key payload =
  (match Hashtbl.find_opt t.mem key with
  | Some (_, tick_ref) ->
      Hashtbl.replace t.mem key (payload, tick_ref);
      touch t tick_ref
  | None ->
      let tick_ref = ref 0 in
      touch t tick_ref;
      Hashtbl.replace t.mem key (payload, tick_ref));
  (* evict least-recently-used overflow *)
  while Hashtbl.length t.mem > t.mem_capacity do
    let victim = ref None in
    Hashtbl.iter
      (fun k (_, tick_ref) ->
        match !victim with
        | Some (_, best) when best <= !tick_ref -> ()
        | _ -> victim := Some (k, !tick_ref))
      t.mem;
    match !victim with
    | Some (k, _) ->
        Hashtbl.remove t.mem k;
        Metrics.incr evictions
    | None -> ()
  done

(* -- disk tier ------------------------------------------------------------ *)

let disk_write t key payload =
  match t.dir with
  | None -> ()
  | Some dir -> (
      try
        let final = entry_path dir key in
        let tmp =
          Filename.concat dir
            (Printf.sprintf ".tmp.%s.%d" key (Unix.getpid ()))
        in
        let fd =
          Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
            0o644
        in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            let bytes = encode payload in
            let written =
              Unix.write_substring fd bytes 0 (String.length bytes)
            in
            if written <> String.length bytes then failwith "short write";
            Unix.fsync fd);
        Sys.rename tmp final
      with _ -> Metrics.incr store_errors)

let disk_read t key =
  match t.dir with
  | None -> None
  | Some dir -> (
      let path = entry_path dir key in
      if not (Sys.file_exists path) then None
      else
        match decode (read_file path) with
        | Ok payload -> Some payload
        | Error _ | (exception Sys_error _) | (exception End_of_file) ->
            (* late corruption: same treatment as the startup scan *)
            quarantine_file t ~dir path;
            None)

(* -- public operations ---------------------------------------------------- *)

let find t ~key =
  Mutex.lock t.lock;
  let result =
    match Hashtbl.find_opt t.mem key with
    | Some (payload, tick_ref) ->
        touch t tick_ref;
        Metrics.incr hits_mem;
        Some payload
    | None -> (
        match disk_read t key with
        | Some payload ->
            mem_insert t key payload;
            Metrics.incr hits_disk;
            Some payload
        | None ->
            Metrics.incr misses;
            None)
  in
  Mutex.unlock t.lock;
  result

let store t ~key payload =
  Mutex.lock t.lock;
  mem_insert t key payload;
  disk_write t key payload;
  Metrics.incr stores;
  Mutex.unlock t.lock

let invalidate t ~key =
  Mutex.lock t.lock;
  Hashtbl.remove t.mem key;
  (match t.dir with
  | Some dir when Sys.file_exists (entry_path dir key) ->
      quarantine_file t ~dir (entry_path dir key)
  | _ -> ());
  Mutex.unlock t.lock

let mem_size t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.mem in
  Mutex.unlock t.lock;
  n
