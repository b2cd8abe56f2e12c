(** Multi-tenant worker pool over OCaml domains.

    One pool lives for the engine's lifetime. Each pipeline execution
    submits a job; worker domains join open jobs — least-staffed
    first, so domains spread across concurrent queries — claim a
    thread id, and run the job function until its morsel supply is
    exhausted. The submitting caller always participates as tid 0, so
    a query progresses even when all workers are busy elsewhere, and a
    1-thread pool runs entirely inline. Unlike the old single-tenant
    barrier pool, several queries' pipelines execute concurrently.

    Workers are supervised (see {!Supervisor}): an unstructured
    exception escaping a job function — a crash — is contained by the
    worker's barrier, the crashed participant's job accounting is
    repaired (so the submitting caller's drain barrier still wakes,
    with the crash surfaced as {!Query_error.Worker_crashed}), and the
    worker domain restarts under a backoff budget. *)

type t

val create : ?restart_policy:Supervisor.policy -> n_threads:int -> unit -> t
(** [restart_policy] defaults to {!Supervisor.default_policy}. *)

val n_threads : t -> int

val run : ?max_tids:int -> t -> (tid:int -> unit) -> unit
(** Execute a job: the caller runs [fn ~tid:0]; idle workers join with
    distinct tids [1..max_tids-1] (default [n_threads], clamped to
    it). [fn] must return when it cannot obtain more work — a morsel
    loop over a shared atomic cursor. Returns when the caller's run
    and every joined worker's run have finished. Exceptions raised by
    participants are re-raised in the caller (first one wins).

    Workers may join at any point while the caller is still running;
    after the caller's [fn] returns no new workers join, but the call
    blocks until those already in flight drain.

    If a worker serving this job crashes, the supervisor's reclaim
    records [Query_error.Error (Worker_crashed _)] as the job error —
    re-raised here, and the query fails with it. A crash in the caller's own participation (tid
    0) still runs the close-out — the job leaves the open list and the
    barrier drains — and then propagates to the caller's supervisor.
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
