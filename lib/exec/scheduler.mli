(** Concurrent query serving: admission control, overload shedding
    and deadlines in front of the driver.

    The execution core underneath (driver + multi-tenant worker pool +
    per-query arena leases) runs queries concurrently, and the pool's
    workers serve the admitted ones: a worker with no morsel job to
    join takes the next ticket and runs its query, so up to one
    admitted query per worker is in flight and the scheduler spawns no
    domain. What a server needs on top — and what this module
    provides — is a defined behavior when clients outnumber capacity:

    - a {b bounded admission queue} with three priority classes and
      per-query deadlines. A full queue answers immediately with
      {!Query_error.Overloaded} (fail fast, never queue unboundedly),
      shedding an already-queued lower-priority query first if that
      makes room for a higher-priority newcomer;
    - {b load shedding / graceful degradation}: when queue depth
      crosses its threshold, newly dispatched queries are forced to
      bytecode-only mode — no compilation spend under overload;
    - {b one answer per query}: an admitted query executes once and
      its ticket completes with the outcome of that execution. A failed
      compile is not the scheduler's concern — the prepared statement
      blacklists the mode and keeps running in the tier it is in (see
      [Handle.promote]) — and a failure is returned, never retried;
    - {b deadlines without a timer}: a query's deadline is set on its
      {!Cancel.t} token, so the driver's per-morsel guard stops a
      running query at the first morsel boundary past it ([Timeout]).
      A ticket whose deadline passes while it is still queued is
      answered [Rejected] wherever the scheduler touches it: at every
      {!submit}, whenever a worker takes a ticket, and at {!poll} and
      {!await} of that ticket.

    Clients call {!submit} (asynchronous; returns a {!ticket}) and
    {!await} or {!poll} the ticket, from any number of domains. The
    ticket is the only way a query answers: {!submit} never raises.
    Workers take tickets highest-priority-first, FIFO within a class;
    over a 1-thread pool serving is fully serialized (the
    deterministic mode the scheduler tests rely on). *)

type priority = Low | Normal | High

val priority_name : priority -> string

type config = {
  queue_capacity : int;  (** admission queue bound (≥ 1) *)
  shed_queue_depth : int;
      (** queue depth beyond which dispatched queries are forced to
          bytecode-only *)
  restart_policy : Supervisor.policy;
      (** restart budget and backoff for the pool workers, which run
          under {!Supervisor} barriers: a crash completes the
          victim's in-flight ticket with [Worker_crashed] and
          restarts the worker. {!create} applies it to the pool *)
}

val default_config : config

type outcome = (Driver.result, Query_error.t) result

type ticket
(** A submitted query. Await it, cancel it, or inspect it. *)

type t

val create :
  ?config:config ->
  pool:Pool.t ->
  exec:(mode:Driver.mode -> cancel:Cancel.t -> string -> Driver.result) ->
  unit ->
  t
(** Start a scheduler served by [pool]'s workers ({!Pool.serve}, which
    starts the pool's n-th worker; the scheduler spawns no domain).
    [exec] runs one query to completion and is called from pool
    workers — up to one call per worker concurrently, so it must be
    thread-safe (the engine's [query] is); its pipeline jobs go to
    [pool]. Whatever it raises becomes the ticket's
    [Error (Query_error.of_exn e)] — except a domain crash
    ({!Aeq_util.Probe.is_crash}), the one exception that escapes: it
    unwinds out of the worker, whose supervisor answers the ticket
    with [Worker_crashed] and restarts the worker. Once no worker is
    left to take a ticket (every worker's supervisor has given up, or
    the pool is shut down), queued tickets are rejected and new ones
    refused.
    @raise Invalid_argument if [pool] already serves a scheduler. *)

val submit :
  ?mode:Driver.mode ->
  ?priority:priority ->
  ?deadline_seconds:float ->
  ?cancel:Cancel.t ->
  t ->
  string ->
  ticket
(** Enqueue a query. Returns immediately and never raises.

    [deadline_seconds] is end-to-end (queue wait + execution) and is
    set on the query's {!Cancel.t} token (the caller's [cancel], or a
    fresh one). Exceeding it while running stops the query at the next
    morsel boundary with [Timeout deadline_seconds]; there is no grace
    period. Expiring while still queued yields
    [Rejected "deadline expired in admission queue"], counted as
    [expired], and the query never runs. Queued expiry has no timer: it
    happens at the next {!submit} or when a worker next takes a
    ticket, or when the ticket is {!poll}ed or {!await}ed. A wire
    session polls every 2 ms, so it is answered at the deadline; an
    {!await} that is already blocked when its queued ticket goes
    overdue is answered at the next submit, take or poll instead. An
    overdue ticket never costs a newcomer its room: {!submit} expires
    overdue tickets before judging whether the queue is full.
    [cancel] lets the caller abandon the query later ({!cancel} does
    the same).

    An admission refusal returns a ticket that is already complete
    ({!poll} answers at once) and is never counted as [admitted]:
    - [Error (Overloaded _)] when the queue is full and no
      strictly-lower-priority query can be shed — the fail-fast
      admission contract; counted as [rejected];
    - [Error (Rejected "draining")] while the scheduler drains;
      counted as [rejected];
    - [Error (Rejected _)] once it is shut down, or once no worker is
      left to serve. *)

val await : ticket -> outcome
(** Block until the query completes (any domain may await). *)

val poll : ticket -> outcome option
(** Non-blocking {!await}: [Some outcome] once the query completed,
    [None] while it is still queued or running. The network session
    loop uses this to multiplex ticket completion with socket reads
    (an out-of-band [Cancel] frame must be seen while the query it
    cancels is in flight). *)

val cancel : ticket -> unit
(** Cancel the query (queued: completes [Cancelled] without running;
    running: stops at the next morsel boundary). *)

val wait_seconds : ticket -> float
(** Time the ticket spent queued before execution started ([-1.] if it
    never started). *)

val was_degraded : ticket -> bool
(** The scheduler forced this query to bytecode-only (overload). *)

type stats = {
  admitted : int;  (** accepted into the queue *)
  rejected : int;  (** refused at submission ([Overloaded]) or at shutdown *)
  shed : int;  (** evicted from the queue to admit higher priority *)
  expired : int;  (** deadline passed while still queued *)
  in_flight : int;  (** gauge: queries being served right now *)
  completed : int;  (** finished with rows *)
  failed : int;  (** finished with a structured error *)
  degraded : int;  (** executions forced to bytecode-only *)
  queue_depth : int;  (** gauge: queries queued right now *)
  max_queue_depth : int;  (** high-water mark of [queue_depth] *)
  avg_wait_seconds : float;  (** mean queue wait of dispatched queries *)
  max_wait_seconds : float;
  crashed_tickets : int;
      (** in-flight tickets completed as [Worker_crashed] by
          supervisor reclaim after the worker serving them died *)
  domain_crashes : int;
      (** crashes caught by the pool's worker supervisors (monotone
          over the pool's lifetime; not zeroed by {!reset_stats}) *)
  domain_restarts : int;
      (** supervised restarts performed (monotone, like
          [domain_crashes]) — the restart budget made observable *)
}

val zero_stats : stats
(** All counters zero — what an engine reports before its scheduler
    exists. *)

val stats : t -> stats

val reset_stats : t -> unit
(** Zero the accumulated counters ([admitted] … [crashed_tickets], wait
    statistics, [max_queue_depth] — which restarts from the current
    depth). Live state — the queue itself — is untouched. Used by
    [Engine.reset_stats] for windowed scraping. *)

val drain : ?deadline_seconds:float -> t -> bool
(** Graceful drain: stop admission (later {!submit}s answer
    [Rejected "draining"]) and wait up to [deadline_seconds] (default
    30) for the queue and the in-flight set to empty. Past the
    deadline, still-queued clients complete [Rejected] and in-flight
    queries are cancelled, so no [await] is left hanging. Returns
    [true] if quiescence was reached cleanly, [false] if the deadline
    forced it. Does not shut the scheduler down — callers (see
    [Engine.drain]) typically follow with {!shutdown}. *)

val draining : t -> bool

val shutdown : t -> unit
(** Stop serving: every still-queued query completes with [Rejected],
    and the call returns once the in-flight queries have finished (so
    shut the pool down after it, not before). Idempotent. Later
    {!submit}s answer [Rejected]. *)
