(** Turn a witnessed mapping report into a self-contained certificate.

    Emission requires a {e proven-optimal} report carrying a
    {!Qxm_exact.Mapper.witness} (set [options.certificate] before the
    run).  When the witness already carries the final rung's DRUP trace
    it is packaged as-is; when it does not — the "no improvement on the
    incumbent" portfolio path kept an earlier rung's witness — the UNSAT
    bound F*−1 is re-proved here on a fresh logging solver, so an
    emitted certificate always contains a complete proof (or needs none,
    for F* = 0, whose [proof_drup] is empty). *)

val of_report :
  ?deadline:float ->
  device_name:string ->
  arch:Qxm_arch.Coupling.t ->
  circuit:Qxm_circuit.Circuit.t ->
  options:Qxm_exact.Mapper.options ->
  Qxm_exact.Mapper.report ->
  (Certificate.t, string) result
(** [of_report ~device_name ~arch ~circuit ~options report] builds a
    certificate for a {!Qxm_exact.Mapper.run} answer.  [arch], [circuit]
    and [options] must be the values the run was given.  [?deadline]
    (absolute timestamp) bounds the re-prove fallback; exceeding it is
    an [Error].  Fails on non-optimal or witness-less reports. *)

val of_portfolio :
  ?deadline:float ->
  device_name:string ->
  arch:Qxm_arch.Coupling.t ->
  circuit:Qxm_circuit.Circuit.t ->
  options:Qxm_exact.Portfolio.options ->
  Qxm_exact.Portfolio.report ->
  (Certificate.t, string) result
(** Same for a {!Qxm_exact.Portfolio.run} answer; only
    [Exact_optimal]-provenance reports carry a witness. *)
