(** An interruptible timed wait (self-pipe + [select]).

    The stdlib [Condition] cannot wait with a timeout, so a timed
    sleep (a scheduler drain waiting for in-flight work) would
    either oversleep a shutdown or busy-poll. A [Waiter.t] gives the
    third option: sleep up to the timeout, but return immediately
    when another domain calls {!wake}. One waiter per sleeper; [wake] may be called from anywhere, any number of
    times (wakes coalesce). *)

type t

val create : unit -> t

val wait : t -> float -> bool
(** [wait t seconds] blocks up to [seconds]. Returns [true] if the
    sleep was cut short (a {!wake}, a signal, or disposal), [false] on
    a full timeout. Non-positive durations return [false] at once.
    Pending wakes are consumed, so back-to-back waits sleep again. *)

val wake : t -> unit
(** Interrupt the current (or next) {!wait}. Cheap, non-blocking,
    safe from any domain and from signal handlers' deferred context. *)

val dispose : t -> unit
(** Close the pipe. Call only after the sleeping domain has exited
    (a concurrent {!wait} observes disposal as a wake at worst).
    Idempotent. *)
