(** Execution trace recording (the data behind the paper's Fig. 14).

    Each morsel and compilation burst is recorded as an interval per
    thread; benchmarks render these as per-thread lanes. *)

type kind =
  | Ev_morsel of Aeq_backend.Cost_model.mode
  | Ev_compile of Aeq_backend.Cost_model.mode
  | Ev_compile_failed of Aeq_backend.Cost_model.mode
      (** a promotion to this mode failed; the pipeline degraded to
          its current mode and blacklisted the target (rendered 'X') *)

type event = {
  pipeline : int;
  tid : int;
  t0 : float;  (** seconds since the trace epoch *)
  t1 : float;
  kind : kind;
}

type t

val create : unit -> t
(** An empty trace on an {!Aeq_obs.Ring}: at most
    {!Aeq_obs.Ring.capacity} events are retained, so a trace left
    attached to a long-running serve stays bounded. Events past the
    cap are dropped and counted, not silently lost. *)

val epoch : t -> float

val record : t -> pipeline:int -> tid:int -> t0:float -> t1:float -> kind -> unit
(** Thread-safe. Times are absolute ({!Aeq_util.Clock.now}); stored
    relative to the epoch. *)

val events : t -> event list
(** Sorted by start time. The sort runs once per mutation and is
    cached, so repeated calls (rendering + exporting the same trace)
    do not re-sort. *)

val n_events : t -> int

val dropped : t -> int
(** Events discarded because the trace was at capacity. *)

val render : t -> n_threads:int -> string
(** ASCII lanes, one per thread. *)
