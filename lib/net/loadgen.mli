(** The open-loop load generator.

    A {e closed loop} (each client submits, waits for the result,
    submits again, as bench [concurrency] does in process) slows its
    offered load down with the engine, so measured latency hides the
    backlog a real arrival process would build (coordinated omission).
    This module drives the wire server the way external clients do: arrivals follow a seeded Poisson process
    at a fixed offered rate, each arrival is served by the next free
    connection {e when its time comes, whether or not earlier queries
    have finished}, and latency is measured from the {e scheduled}
    arrival instant — queueing delay the server causes is part of the
    number, not silently dropped.

    Mechanics: the arrival schedule (exponential gaps, splitmix64
    seed) is precomputed; [connections] worker threads, one wire
    connection each, race down the schedule through one atomic
    cursor. Workers record latencies in per-worker log-bucketed
    histograms (power-of-two buckets from 1µs), merged after the join;
    percentiles interpolate geometrically within a bucket. An
    overloaded run is bounded: workers stop starting new arrivals
    past [2 × duration + 5 s], and the unserved tail is reported
    ([attempted] < [offered]). *)

type config = {
  host : string;
  port : int;
  rate : float;  (** offered arrival rate, queries/second (all workers) *)
  duration_seconds : float;  (** length of the arrival schedule *)
  connections : int;  (** worker threads = wire connections *)
  seed : int64;  (** arrival-schedule PRNG seed *)
  statements : string list;  (** round-robin by arrival index *)
  use_prepared : bool;
      (** [Prepare] once per connection, then [Execute_prepared] *)
  priority : Aeq_exec.Scheduler.priority;
  deadline_seconds : float option;
}

val default_config : config
(** 127.0.0.1:7878, 50 qps for 5 s over 8 connections, seed 42,
    one metadata statement, not prepared, [Normal] priority. *)

type summary = {
  offered : int;  (** arrivals in the schedule *)
  attempted : int;  (** arrivals actually sent (= offered unless the
                        run hit the overload time bound) *)
  completed : int;  (** queries answered with rows *)
  failed : (string * int) list;
      (** error label → count, sorted by count: a query error under its
          {!Aeq_exec.Query_error.label} (the label
          [aeq_query_errors_total] carries), [protocol_violation], or
          [transport] *)
  connect_errors : int;  (** workers that could not establish a session *)
  offered_rate : float;  (** offered / duration *)
  achieved_rate : float;  (** completed / wall_seconds *)
  wall_seconds : float;  (** first scheduled arrival → last completion *)
  mean_seconds : float;
  max_seconds : float;
  p50_seconds : float;
  p95_seconds : float;
  p99_seconds : float;
}

val run : config -> summary
(** Blocks for the whole run. Ignores SIGPIPE for the process, so a
    session the server closes ends its worker with a [transport] error.
    @raise Invalid_argument on a non-positive
    rate, duration or connection count, or an empty statement list. *)

val summary_to_json : ?extra:(string * Aeq_obs.Json.t) list -> summary -> Aeq_obs.Json.t
(** One JSON object ([loop], the counts, rates and latencies, and
    [errors] keyed by label); [extra] appends fields after them. *)
