(** Multi-tenant worker pool over OCaml domains — the engine's only
    domains.

    One pool lives for the engine's lifetime. Each pipeline execution
    submits a job; worker domains join open jobs — least-staffed
    first, so domains spread across concurrent queries — claim a
    thread id, and run the job function until its morsel supply is
    exhausted. The submitting caller always participates as tid 0, so
    a query progresses even when all workers are busy elsewhere, and a
    1-thread pool runs entirely inline. A worker with no job to join
    serves a queued ticket of the scheduler attached by {!serve}, as
    the caller (tid 0) of that query's jobs.

    Workers are supervised (see {!Supervisor}): a worker's crash
    hook repairs what it held — the accounting of a job it helped, so
    the caller's barrier still drains and raises
    {!Query_error.Worker_crashed}, or the query it served, which
    {!task.on_crash} answers — and the worker restarts under a
    backoff budget. *)

type t

val create : ?restart_policy:Supervisor.policy -> n_threads:int -> unit -> t
(** Spawns no worker: the first {!run} that can use helpers starts
    [n_threads - 1] (a query's runner is the n-th participant of its
    own jobs), and the first {!wake} starts one more. An idle worker
    domain makes every stop-the-world collection wait for it, so a
    pool that has only loaded tables pays none. [restart_policy]
    defaults to {!Supervisor.default_policy}. *)

(** A queued ticket claimed by a worker: [run] serves and answers it
    (raising only a domain crash); [on_crash] answers it if the
    worker named [domain] crashed in [run]. *)
type task = { run : unit -> unit; on_crash : domain:string -> exn -> unit }

val serve : t -> take:(unit -> task option) -> on_stranded:(unit -> unit) -> unit
(** Attach a scheduler. Starts no worker: the first {!wake} does. A
    worker with no job to join calls [take] under the pool's lock —
    [take] may lock the scheduler, which must never take the pool's
    lock under its own. [on_stranded] runs when no worker will take a
    ticket again: the pool is shut down, or, once the n-th worker has
    started, every worker's supervisor gave up.
    @raise Invalid_argument if a scheduler is already attached. *)

val wake : t -> unit
(** Wake idle workers to [take] again, after a ticket is queued. The
    first call starts the n-th worker, since a queued ticket has no
    caller domain.

    Until a job that can use helpers starts the other [n_threads - 1],
    that one worker serves every queued ticket, whatever [n_threads]
    is: a server whose queries run small pipelines keeps one domain
    busy. Starting the helpers together with it would spread tickets
    across [n_threads] workers, but each started domain brings its
    own minor heap (2 MB at the default size) and stack: on the
    [wire_meta] benchmark (2-vCPU VM, [n_threads] 2) it raised
    [peak_rss_mb] from 17.3 to 20.9 MB in 3 of 3 alternating pairs,
    past that metric's 10% bound. *)

val n_threads : t -> int

val run : ?max_tids:int -> t -> (tid:int -> unit) -> unit
(** Execute a job: the caller runs [fn ~tid:0]; idle workers join with
    distinct tids [1..max_tids-1] (default [n_threads], clamped to
    it). The first call with [max_tids > 1] starts the
    [n_threads - 1] helper workers. [fn] must return when it cannot
    obtain more work — a morsel loop over a shared atomic cursor. Returns when the caller's run
    and every joined worker's run have finished. Exceptions raised by
    participants are re-raised in the caller (first one wins).

    Workers may join at any point while the caller is still running;
    after the caller's [fn] returns no new workers join, but the call
    blocks until those already in flight drain.

    If a worker serving this job crashes, the supervisor's reclaim
    records [Query_error.Error (Worker_crashed _)] as the job error —
    re-raised here, and the query fails with it. A crash in the caller's own participation (tid
    0) still runs the close-out — the job leaves the open list and the
    barrier drains — and then propagates to the caller.
    @raise Invalid_argument if the pool has been {!shutdown}. *)

val closed : t -> bool

val busy : t -> bool
(** At least one job is in flight. A monitoring gauge — racy by
    nature, do not synchronise on it. *)

val active_jobs : t -> int
(** Number of jobs currently in flight (submitted, not yet drained). *)

val check : t -> string list
(** Cross-check per-job participant accounting (claimed tids vs
    active participants vs the in-flight job counter). Empty =
    coherent. Run by the deterministic simulator's invariant checker
    at yield points. Takes the pool lock. *)

val health_reasons : t -> string list
(** One reason per supervised worker currently crashed-and-backing-off
    or failed. Empty = all workers healthy. *)

val supervisors : t -> Supervisor.t list
(** Worker supervisors, for tests and introspection. *)

val shutdown : t -> unit
(** Stop and join the worker domains (and their supervisors).
    Idempotent. *)
