(** The adaptive controller: Fig. 7's [extrapolatePipelineDurations].

    After every morsel (and no earlier than 1 ms into the pipeline, to
    let the rate estimates stabilise), one thread evaluates the three
    options for the pipeline's worker function:

    + keep the current execution mode: [t0 = n / r0 / w];
    + compile unoptimized: [t1 = c1 + max(n - (w-1)·r0·c1, 0) / r1 / w];
    + compile optimized:   [t2 = c2 + max(n - (w-1)·r0·c2, 0) / r2 / w]

    where [n] is the remaining tuple count, [w] the worker count, [r0]
    the measured rate, [r1/r2 = r0 × speedup(candidate) /
    speedup(current)] (the measured rate is in the *current* mode's
    units, so candidate speedups — stated relative to bytecode — must
    be rescaled to relative gains before applying them), and [c1/c2]
    the modelled compile latencies for the function's instruction
    count, 0 for a variant an earlier execution cached. The speedups are the engine's learned
    {!Aeq_backend.Calibration.estimate}, which every switch this
    controller makes feeds with one sample. The
    [(w-1)·r0·c] term accounts for tuples the other threads process
    while one thread compiles. Evaluation is guarded so only one
    thread runs it ("the extrapolation is only performed by a single
    worker thread"). *)

type decision = Do_nothing | Compile of Aeq_backend.Cost_model.mode

type candidate = {
  cand_mode : Aeq_backend.Cost_model.mode;
  cand_speedup : float;  (** the speedup vs bytecode it was priced with *)
  cand_seconds : float;
      (** extrapolated total remaining-pipeline seconds if this mode
          were compiled now; [infinity] when blacklisted *)
  cand_blacklisted : bool;
}

type eval = {
  ev_stay_seconds : float;
      (** projected remaining seconds at the current mode's measured
          rate; [infinity] when no rate sample exists yet *)
  ev_candidates : candidate list;
  ev_decision : decision;
}

type t

val create :
  ?pipeline:int ->
  model:Aeq_backend.Cost_model.t ->
  estimate:Aeq_backend.Calibration.estimate ->
  handle:Handle.t ->
  progress:Progress.t ->
  n_threads:int ->
  unit ->
  t
(** [pipeline] (default 0) tags this controller's decisions in the
    observability event log ({!Aeq_obs.Event_log}). [model] prices
    the compiles, [estimate] the speedups. *)

val evaluate :
  ?allow_unopt:bool ->
  ?allow_opt:bool ->
  speedups:Aeq_backend.Calibration.t ->
  compile_unopt:float ->
  compile_opt:float ->
  current_mode:Aeq_backend.Cost_model.mode ->
  remaining:int ->
  rate:float ->
  n_threads:int ->
  unit ->
  eval
(** The pure extrapolation with its full working shown: the
    stay-the-course projection and every candidate's projected total,
    alongside the decision: what the event log records. [allow_unopt]
    / [allow_opt] (default [true]) exclude blacklisted candidates — a
    mode whose compilation failed is priced at infinity and therefore
    never chosen again. *)

val maybe_decide : t -> decision
(** Thread-safe; returns [Do_nothing] unless this caller won the
    evaluation slot and an upgrade is worthwhile. Marks the handle as
    compiling when it returns [Compile _] — the caller must then run
    {!Handle.promote} and {!finish_compile}. *)

val finish_compile : t -> unit
(** Reinstates evaluation. After a promotion the next decision's
    rate, over the one before, is one sample for the estimate. *)
