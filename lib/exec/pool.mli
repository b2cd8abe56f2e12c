(** Multi-tenant worker pool over OCaml domains — the engine's only
    domains.

    One pool lives for the engine's lifetime. Each pipeline execution
    submits a job; worker domains join open jobs — least-staffed
    first, so domains spread across concurrent queries — claim a
    thread id, and run the job function until its morsel supply is
    exhausted. The submitting caller always participates as tid 0, so
    a query progresses even when all workers are busy elsewhere, and a
    1-thread pool runs entirely inline. A worker with no job to join
    serves an admitted query of the scheduler attached by {!serve},
    as the caller (tid 0) of that query's jobs.

    Workers are supervised (see {!Supervisor}): a worker's crash
    hook repairs what it held — the accounting of a job it helped, so
    the caller's barrier still drains and raises
    {!Query_error.Worker_crashed}, or the query it served, which
    {!task.on_crash} answers — and the worker restarts under a
    backoff budget. *)

type t

val create : ?restart_policy:Supervisor.policy -> n_threads:int -> unit -> t
(** Spawns no worker: the first {!run} that can use helpers starts
    [n_threads - 1] (a direct caller is the n-th participant of its
    own jobs), and {!serve} starts one more. An idle worker domain
    makes every stop-the-world collection wait for it, so a pool that
    has only loaded tables pays none. [restart_policy] defaults to
    {!Supervisor.default_policy}. *)

val set_restart_policy : t -> Supervisor.policy -> unit
(** For every worker, including one {!serve} starts later. *)

(** An admitted query claimed by a worker: [run] serves and answers it
    (raising only a domain crash); [on_crash] answers it if the
    worker named [domain] crashed in [run]. *)
type task = { run : unit -> unit; on_crash : domain:string -> exn -> unit }

val serve : t -> take:(unit -> task option) -> on_stranded:(unit -> unit) -> unit
(** Attach a scheduler and start the n-th worker (an admitted query
    has no caller domain). A worker with no job to join calls [take]
    under the pool's lock — [take] may lock the scheduler, which must
    never take the pool's lock under its own. [on_stranded] runs when
    no worker will take a ticket again: every worker's supervisor
    gave up, or the pool is shut down.
    @raise Invalid_argument if a scheduler is already attached. *)

val wake : t -> unit
(** Wake idle workers to [take] again, after a ticket is admitted. *)

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
