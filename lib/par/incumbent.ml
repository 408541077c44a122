module Trace = Qxm_obs.Trace
module Metrics = Qxm_obs.Metrics

let updates = Metrics.counter "par.incumbent_updates"

type t = { cell : (int * int) option Atomic.t }

let create () = { cell = Atomic.make None }
let get t = Atomic.get t.cell

let rec offer_loop t ~cost ~index =
  let cur = Atomic.get t.cell in
  let better =
    match cur with
    | None -> true
    | Some (c, i) -> cost < c || (cost = c && index < i)
  in
  better
  && (Atomic.compare_and_set t.cell cur (Some (cost, index))
     || offer_loop t ~cost ~index)

let offer t ~cost ~index =
  let installed = offer_loop t ~cost ~index in
  if installed then begin
    Metrics.incr updates;
    Trace.instant
      ~args:[ ("cost", Trace.Int cost); ("index", Trace.Int index) ]
      "incumbent.update"
  end;
  installed

let cap t ~index =
  match get t with
  | None -> None
  | Some (c, i) -> Some (if i < index then c - 1 else c)
