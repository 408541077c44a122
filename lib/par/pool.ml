(* Work queue over Mutex/Condition, one condition variable shared by
   workers and helpers.  Every state transition that could unblock a
   waiter (new task, shutdown, future resolution) broadcasts [work], so
   the classic lost-wakeup interleaving — helper checks the queue,
   finds it empty, and a task is enqueued before it sleeps — cannot
   strand anyone: the enqueue's broadcast happens after the helper
   released the lock into [Condition.wait]. *)

module Trace = Qxm_obs.Trace
module Metrics = Qxm_obs.Metrics

let queue_depth = Metrics.gauge "par.pool_queue_depth"
let tasks_submitted = Metrics.counter "par.pool_tasks"

type task = unit -> unit

type t = {
  lock : Mutex.t;
  work : Condition.t;
  queue : task Queue.t;
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
  width : int;
}

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a future = { state : 'a state Atomic.t; owner : t }

let size t = t.width

let take_locked pool =
  (* next task, or None once the pool drains and is stopping *)
  let rec go () =
    match Queue.take_opt pool.queue with
    | Some t -> Some t
    | None ->
        if pool.stopping then None
        else begin
          Condition.wait pool.work pool.lock;
          go ()
        end
  in
  go ()

let worker pool =
  let rec loop () =
    Mutex.lock pool.lock;
    let t = take_locked pool in
    Mutex.unlock pool.lock;
    match t with
    | None -> ()
    | Some task ->
        (* tasks are wrapped by [submit] and never raise *)
        task ();
        loop ()
  in
  loop ()

let create j =
  let width = max 1 j in
  let pool =
    {
      lock = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      domains = [];
      width;
    }
  in
  pool.domains <-
    List.init (width - 1) (fun _ -> Domain.spawn (fun () -> worker pool));
  pool

let shutdown pool =
  Mutex.lock pool.lock;
  pool.stopping <- true;
  Condition.broadcast pool.work;
  Mutex.unlock pool.lock;
  let ds = pool.domains in
  pool.domains <- [];
  List.iter Domain.join ds

let with_pool j f =
  let pool = create j in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let run_to_state fn =
  match fn () with
  | v -> Done v
  | exception e -> Failed (e, Printexc.get_raw_backtrace ())

let submit ?(label = "pool.task") pool fn =
  Metrics.incr tasks_submitted;
  (* The span opens on whichever domain actually runs the task — a
     worker, or a helper blocked in [await] — so traces show true
     placement, keyed by the executing domain's id. *)
  let fn () = Trace.with_span ~name:label fn in
  if pool.width = 1 then
    (* sequential pool: run inline, in submission order *)
    { state = Atomic.make (run_to_state fn); owner = pool }
  else begin
    let fut = { state = Atomic.make Pending; owner = pool } in
    let task () =
      let r = run_to_state fn in
      Atomic.set fut.state r;
      (* wake helpers blocked on this future (they wait on [work]) *)
      Mutex.lock pool.lock;
      Condition.broadcast pool.work;
      Mutex.unlock pool.lock
    in
    Mutex.lock pool.lock;
    if pool.stopping then begin
      Mutex.unlock pool.lock;
      invalid_arg "Pool.submit: pool is shut down"
    end;
    Queue.add task pool.queue;
    Metrics.max_gauge queue_depth
      (float_of_int (Queue.length pool.queue));
    Condition.broadcast pool.work;
    Mutex.unlock pool.lock;
    fut
  end

let await fut =
  let pool = fut.owner in
  let rec wait () =
    match Atomic.get fut.state with
    | Done v -> v
    | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
    | Pending ->
        Mutex.lock pool.lock;
        (match Queue.take_opt pool.queue with
        | Some task ->
            Mutex.unlock pool.lock;
            (* help: run someone's task instead of sleeping *)
            task ();
            wait ()
        | None ->
            (* Re-check under the lock: resolution broadcasts [work]
               while holding it, so either we see the final state here
               or the broadcast lands after our wait begins. *)
            (match Atomic.get fut.state with
            | Pending when not pool.stopping ->
                Condition.wait pool.work pool.lock
            | _ -> ());
            Mutex.unlock pool.lock;
            wait ())
  in
  wait ()

let await_all futs = List.map await futs
