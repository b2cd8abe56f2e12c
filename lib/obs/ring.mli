(** The bounded event buffer behind every recorder: the process-wide
    {!Event_log} and each per-query execution trace
    ([Aeq_exec.Trace]).

    A ring keeps the {e oldest} events: once it holds {!capacity}
    entries, later pushes are dropped and counted, so the early,
    rare events (parse, plan, the first controller decisions) survive
    a long morsel tail. One mutex guards each ring; every instance is
    the race location ["obs.ring"]. *)

type 'a t

val capacity : int
(** Maximum retained events per ring: 65536. *)

val create : start:('a -> float) -> unit -> 'a t
(** [start] gives an event's start time; {!snapshot} sorts by it. *)

val push : 'a t -> 'a -> unit
(** Thread-safe. Drops (and counts) the event when the ring is full. *)

val snapshot : 'a t -> 'a list
(** Retained events sorted by start time (ties in push order). The
    sort runs once and is cached until the next {!push} or {!clear},
    so rendering and exporting the same ring do not re-sort. *)

val length : 'a t -> int
(** Retained events (at most {!capacity}). *)

val dropped : 'a t -> int
(** Events discarded because the ring was full since the last {!clear}. *)

val clear : 'a t -> unit
(** Empty the ring and zero its dropped counter. *)
