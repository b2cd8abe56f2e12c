(** The structured error taxonomy of query execution.

    Everything that can go wrong while a query runs surfaces as one
    [Error] carrying a {!t}; the engine guarantees cleanup (arena
    scratch released, prepared statement reusable, worker pool
    healthy) before the exception reaches the caller, so the next
    query runs unaffected. *)

type t =
  | Trap of string
      (** a runtime trap from query code: division by zero, overflow,
          abort, or an injected fault *)
  | Compile_failed of Aeq_backend.Cost_model.mode * string
      (** a statically-requested compilation failed and degradation
          was disabled ([`Fail]); the detail string carries the
          underlying failure *)
  | Timeout of float
      (** the [~timeout_seconds] deadline passed (payload: the
          allowance) *)
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
      (** the serving domain (dispatcher or pool worker) holding this
          query died on an unstructured exception; the supervisor
          reclaimed the query's state and restarted the domain.
          [domain] names the casualty, [detail] carries the printed
          exception. The query is not re-run: the client gets this
          error as its answer. *)

exception Error of t

val to_string : t -> string

val raise_error : t -> 'a
