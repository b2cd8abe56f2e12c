(** Cooperative cancellation token, optionally carrying a deadline.

    Create one, pass it to [Engine.query] / [Driver.execute_prepared],
    and {!cancel} it from any thread; every worker checks the token at
    its next morsel boundary and the query raises
    [Query_error.Error Cancelled] after cleanup. A deadline set with
    {!set_deadline} is enforced at the same boundaries: once it has
    passed, the query raises [Query_error.Error (Timeout allowance)].
    [Engine.query ?timeout_seconds] and [Scheduler.submit
    ?deadline_seconds] set it; nothing else enforces a deadline.

    A token is reusable only in the trivial sense that once cancelled
    (or past its deadline) it stops every query it is passed to —
    create a fresh one per query. *)

type t

val create : unit -> t

val cancel : t -> unit
(** Thread-safe, idempotent. *)

val set_deadline : t -> at:float -> allowance:float -> unit
(** Stop the query once [Clock.now ()] exceeds [at] (absolute);
    [allowance] is the budget in seconds it was derived from, echoed in
    [Timeout allowance]. A later call replaces the deadline. *)

val check : t -> Query_error.t option
(** [Some Cancelled] once cancelled, else [Some (Timeout allowance)]
    once the deadline has passed, else [None]. Lock-free: the driver
    calls it at every morsel boundary. *)
