(** Deterministic concurrency simulation of the real engine.

    Runs user-supplied tasks (closures over real engine calls) on real
    domains under token passing: exactly one task runs at a time, and
    the token changes hands only at the engine's probe sites
    ([Aeq_util.Probe.hit] and [Aeq_util.Probe.yield] — lease
    acquire/release, morsel boundaries, context install, pool job
    pick, plan-cache lookup, compiles, restart backoffs; see the
    site table in [probe.mli]). The scheduler
    picks the next task with a seeded PRNG, so an interleaving is a
    pure function of the seed — and of the forced decision list when
    replaying a failure.

    Constraints on simulated code (see DESIGN.md):
    - engines must run with [n_threads = 1] (no untracked pool
      domains; the submitting task executes pipeline jobs inline);
    - blocking waits on the simulated path spin through yields when
      {!Aeq_util.Probe.simulating} (already true of the engine's
      single-flight wait and supervisor restart backoff);
    - probes never sit inside critical sections;
    - use a non-simulating cost model ([Cost_model.off] or
      [simulate = false]): a model that emulates compile latency by
      waiting on the clock crawls under virtual time, which advances
      only at scheduling decisions (plus a tiny epsilon per read).

    Time is virtual while a simulation runs: [Clock.now] reads a
    scheduler-advanced counter (10 µs per decision), so deadlines and
    restart backoffs are replayable schedule events. *)

type outcome = {
  seed : int64;
  schedule : int list;  (** decision actually taken at each step *)
  trace : (string * string) list;
      (** (task name, yield site) at each step, in scheduling order *)
  steps : int;
  invariant_failures : (int * string) list;  (** (step, message) *)
  task_exceptions : (string * string) list;
      (** exceptions that escaped a task's closure (tasks catch their
          own expected structured errors) *)
  deadlocked : bool;  (** hit the step bound before every task finished *)
}

val failed : outcome -> bool
(** Any invariant failure, escaped exception, or livelock. *)

val repro_string : outcome -> string
(** One line a human can paste back into a replay: seed, step count,
    decision list. *)

val run :
  ?max_steps:int ->
  ?schedule:int list ->
  ?checkers:(unit -> string list) list ->
  seed:int64 ->
  tasks:(string * (unit -> unit)) list ->
  unit ->
  outcome
(** Run [tasks] to completion under a simulated schedule.

    Without [schedule], decisions come from the PRNG seeded with
    [seed]. With [schedule], its entries are consumed first (each taken
    modulo the number of runnable tasks) and a deterministic
    round-robin tail follows — so a shrunk prefix still replays
    deterministically. [checkers] run between steps, while no task
    holds the token (the system is quiescent; taking engine locks is
    safe); the first non-empty report aborts the simulation. After
    [max_steps] (default 200k) the run is declared livelocked.
    On any abort every task is released to free-run to completion so
    domains can be joined — determinism is already forfeit at that
    point and the failure is already recorded.

    @raise Invalid_argument if a simulation is already running. *)

val shrink : ?budget:int -> replay:(int list -> bool) -> int list -> int list
(** Minimise a failing decision list. [replay d] must re-run the
    failing setup under [~schedule:d] and report whether it still
    fails. Shortest-failing-prefix search first, then ddmin-style
    chunk removal; at most [budget] (default 200) replays. Returns the
    smallest failing list found (the input if nothing smaller fails). *)
