(** The observability master switch.

    Hot-path instrumentation (per-morsel metrics, the {!Event_log} of
    lifecycle spans and adaptive decisions) is gated on one atomic flag so that with
    observability off the only cost at a morsel boundary is a single
    load-and-branch. Cheap per-query instrumentation (counters bumped
    once per query or per compilation) stays on unconditionally.

    The flag starts [false] unless the [AEQ_OBS] environment variable
    is set to anything but ["0"]. *)

val enabled : unit -> bool
(** One atomic load; safe from any domain. *)

val set_enabled : bool -> unit

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Run [f] with the switch forced to the given value, restoring the
    previous value afterwards (tests, overhead measurements). *)
