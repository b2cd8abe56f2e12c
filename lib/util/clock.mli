(** Wall-clock timing helpers used by the progress tracker, the
    adaptive controller and all benchmarks. *)

val now : unit -> float
(** Seconds since an arbitrary epoch, monotonic enough for interval
    measurement. Reads the installed {!set_source} source (the real
    wall clock by default). *)

val set_source : (unit -> float) -> unit
(** Substitute the time source. The deterministic simulator installs
    a virtual clock here so timeouts, deadlines and restart
    backoffs advance with the simulated schedule instead of real time. *)

val reset_source : unit -> unit
(** Restore the real wall clock. *)

val time_it : (unit -> 'a) -> 'a * float
(** [time_it f] runs [f] and returns its result together with the
    elapsed wall time in seconds. *)

val ms : float -> float
(** Convert seconds to milliseconds. *)

val busy_wait : float -> unit
(** [busy_wait s] spins for [s] seconds. Used by the compile-latency
    cost model to emulate LLVM backend costs (see DESIGN.md). *)
