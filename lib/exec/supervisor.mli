(** Domain supervision: exception barriers, crash reclaim, and
    self-healing restarts for the engine's long-lived domains.

    The engine's only domains are the pool's workers, and each runs
    its loop under a supervisor. An unstructured
    exception escaping the loop (a bug; injected in tests by the
    [Crash] failpoint action) used to kill the domain silently and
    hang every client depending on it. Under supervision the crash is:

    - {b contained}: the barrier catches anything the body throws;
    - {b recorded}: an obs counter per domain plus an entry in the
      process-wide bounded {!crash_log} (what died, on which
      exception, what the supervisor did);
    - {b reclaimed}: the owner's [on_crash] hook repairs what the
      crashed worker held — it completes the ticket the worker served
      with [Query_error.Worker_crashed] and removes it from the
      in-flight set, or fixes the participant accounting of the job
      it helped so that job's barrier still drains — crash-specific
      state the unwind alone cannot restore
      (arena leases, held mutexes and single-flight prepare claims are
      already released by [Fun.protect] and exception handlers on the
      way up);
    - {b restarted}: the same domain re-enters the body after an
      exponential backoff, under a sliding-window restart budget.

    Exhausting the budget (a crash loop) flips the supervisor to
    {!Failed} and fires [on_give_up]; the owner degrades (surfaced
    through [Engine.health]) instead of restarting forever.

    The supervisor transitions are yield points
    (["supervisor.crash"], ["supervisor.backoff"],
    ["supervisor.restart"]), so crash interleavings replay
    deterministically under [Aeq_sim] — sim tasks use {!run} to keep
    the supervised loop on the simulator's scheduler instead of
    spawning a real domain. *)

type policy = {
  max_restarts : int;
      (** crashes tolerated within [window_seconds] before giving up;
          the (n+1)-th flips to [Failed] *)
  window_seconds : float;  (** sliding budget window *)
  backoff_base : float;
      (** pause before the first restart, seconds; doubles per
          consecutive crash in the window *)
  backoff_max : float;  (** backoff growth cap, seconds *)
}

val default_policy : policy
(** 8 restarts / 10 s window, 2 ms base backoff capped at 250 ms. *)

type state =
  | Running  (** body in (or entering) its loop *)
  | Backing_off  (** crashed; pausing before the restart *)
  | Failed  (** restart budget exhausted; body will not run again *)
  | Stopped  (** body returned normally, or {!stop} was honored *)

val state_name : state -> string

type crash_action = Restarted | Gave_up

type crash = {
  cr_at : float;  (** [Clock.now] at the catch *)
  cr_domain : string;  (** supervisor name *)
  cr_exn : string;  (** printed exception *)
  cr_restarts : int;  (** restarts this supervisor has consumed *)
  cr_action : crash_action;
}

type t

val create :
  ?policy:policy ->
  name:string ->
  ?on_crash:(exn -> unit) ->
  ?on_give_up:(exn -> unit) ->
  (unit -> unit) ->
  t
(** Wrap [body] for supervision without starting anything. [body] must
    return normally when its owner's stop condition is set — that is
    how {!stop} + owner-shutdown terminates the loop. [on_crash] runs
    in the crashed domain after the stack has unwound (so it may take
    the owner's locks) on every catch; [on_give_up] runs once if the
    budget is exhausted. Exceptions from either hook are swallowed —
    reclaim must not kill the supervisor.
    @raise Invalid_argument on a malformed [policy]. *)

val start : t -> unit
(** Spawn the supervised domain.
    @raise Invalid_argument if already started. *)

val run : t -> unit
(** Execute the supervised loop inline in the calling domain — for
    simulator tasks (no untracked domains) and tests. Returns when the
    body exits normally, {!stop} is honored, or the budget is
    exhausted. *)

val spawn :
  ?policy:policy ->
  name:string ->
  ?on_crash:(exn -> unit) ->
  ?on_give_up:(exn -> unit) ->
  (unit -> unit) ->
  t
(** {!create} + {!start}. *)

val stop : t -> unit
(** Forbid further restarts and cut any in-progress backoff short.
    Does not interrupt a running body — the owner's own stop flag
    makes the body return — and does not join; call {!join} after. *)

val join : t -> unit
(** Join the supervised domain (no-op for never-started / inline
    supervisors) and release the backoff waiter. Call after {!stop}
    once the body's stop condition is set. *)

val state : t -> state

val name : t -> string

val crashes : t -> int
(** Crashes caught by this supervisor's barrier (monotone). *)

val restarts : t -> int
(** Restarts performed (crashes minus give-up/stop terminations). *)

val health_reason : t -> string option
(** [None] while healthy ([Running]/[Stopped]); a human-readable
    degradation reason while [Backing_off] or [Failed] — what
    [Engine.health] aggregates into [Degraded]. *)

(** {1 Crash log}

    Every supervised crash in the process, on one {!Aeq_obs.Ring} —
    the post-mortem timeline. Retention is the ring's: the {e oldest}
    {!Aeq_obs.Ring.capacity} (65,536) crashes since the last
    {!clear_crash_log} are kept, and later ones are dropped and
    counted. *)

val crash_log : unit -> crash list
(** Retained crashes, newest first (by [cr_at]). *)

val crash_log_dropped : unit -> int
(** Crashes dropped because the log was full since the last
    {!clear_crash_log}. *)

val clear_crash_log : unit -> unit
