(** The structured error taxonomy of query execution.

    Everything that can go wrong between a query's text and its rows
    surfaces as one [Error] carrying a {!t}; the engine guarantees
    cleanup (arena scratch released, prepared statement reusable,
    worker pool healthy) before the exception reaches the caller, so
    the next query runs unaffected.

    This module is the one place that classifies a failure: {!of_exn}
    maps any exception to a {!t}, and {!protect} is the boundary every
    layer wraps around work that may fail. The one exception class
    that is never classified is a domain crash
    ({!Aeq_util.Probe.is_crash}): it passes every boundary so that the
    pool worker's crash handler, not a conversion layer, answers it. *)

type t =
  | Trap of string
      (** a runtime trap from query code (division by zero, overflow,
          abort), an injected fault, or any exception {!of_exn} has no
          other class for *)
  | Compile_failed of Aeq_backend.Cost_model.mode * string
      (** a statically-requested compilation failed and degradation
          was disabled ([`Fail]); the detail string carries the
          underlying failure *)
  | Timeout of float
      (** the deadline on the query's {!Cancel.t} token passed
          ([Engine.query ~timeout_seconds] or [Scheduler.submit
          ~deadline_seconds]; payload: the allowance) *)
  | Cancelled  (** the query's {!Cancel.t} token was cancelled *)
  | Memory_budget_exceeded of { budget_bytes : int; used_bytes : int }
      (** per-query arena scratch exceeded [~memory_budget_bytes] *)
  | Overloaded of { queue_depth : int; capacity : int }
      (** the scheduler's bounded admission queue was full and nothing
          lower-priority could be shed; submitted work is rejected
          immediately instead of queueing unboundedly *)
  | Rejected of string
      (** the scheduler refused or abandoned the query before it
          produced a result: shed under overload, deadline expired
          while still queued, the scheduler was draining, or it was
          shut down *)
  | Worker_crashed of { domain : string; detail : string }
      (** the pool worker serving this query, or helping with one of
          its pipelines, crashed on an unstructured exception; the
          worker's crash handler reclaimed the query's state, and the
          worker went on to its next task.
          [domain] names the casualty, [detail] carries the printed
          exception. The query is not re-run: the client gets this
          error as its answer. *)
  | Parse_failed of string
      (** the SQL text does not lex or parse *)
  | Plan_failed of string
      (** the statement parses but cannot be planned: an unknown table
          or column, or an unsupported shape *)

exception Error of t

val to_string : t -> string
(** The one-line message an in-process caller and a wire client both
    print. *)

val label : t -> string
(** The class name: the [error] label of [aeq_query_errors_total] and
    the key [aeq_load] tallies a failure under ([trap],
    [compile_failed], [timeout], [cancelled], [memory_budget],
    [overloaded], [rejected], [worker_crashed], [parse_failed],
    [plan_failed]). *)

val raise_error : t -> 'a

val of_exn : exn -> t
(** Classify an exception: [Error e] is [e]; a runtime trap is [Trap]; an
    injected fault is [Trap "injected fault at <site>"]; a lexer or
    parser error is [Parse_failed]; a planner error is [Plan_failed];
    anything else is [Trap] with the printed exception. *)

val protect : (unit -> 'a) -> 'a
(** [protect f] runs [f], raising [Error (of_exn e)] for any exception
    [e] it raises — except a domain crash ({!Aeq_util.Probe.is_crash}),
    which is re-raised as is. *)
