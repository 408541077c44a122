module Metrics = Qxm_obs.Metrics

let sheds_total = Metrics.counter "svc.sheds"
let depth_gauge = Metrics.gauge "svc.queue_depth"
let depth_hwm = Metrics.gauge "svc.queue_depth_hwm"
let imbalance = Metrics.counter "svc.admission_imbalance"

type t = {
  lock : Mutex.t;
  watermark : int;
  mutable in_flight : int;
  mutable shed_count : int;
}

type verdict = Admitted | Shed of { depth : int; retry_after : float }

let retry_after = 0.1

let create ~watermark =
  if watermark <= 0 then
    invalid_arg "Admission.create: watermark must be positive";
  { lock = Mutex.create (); watermark; in_flight = 0; shed_count = 0 }

let publish t =
  Metrics.set_gauge depth_gauge (float_of_int t.in_flight);
  Metrics.max_gauge depth_hwm (float_of_int t.in_flight)

let try_admit t =
  Mutex.lock t.lock;
  let verdict =
    if t.in_flight >= t.watermark then begin
      t.shed_count <- t.shed_count + 1;
      Metrics.incr sheds_total;
      Shed { depth = t.in_flight; retry_after }
    end
    else begin
      t.in_flight <- t.in_flight + 1;
      publish t;
      Admitted
    end
  in
  Mutex.unlock t.lock;
  verdict

let release t =
  Mutex.lock t.lock;
  if t.in_flight <= 0 then Metrics.incr imbalance
  else t.in_flight <- t.in_flight - 1;
  publish t;
  Mutex.unlock t.lock

let depth t =
  Mutex.lock t.lock;
  let d = t.in_flight in
  Mutex.unlock t.lock;
  d

let sheds t =
  Mutex.lock t.lock;
  let s = t.shed_count in
  Mutex.unlock t.lock;
  s
