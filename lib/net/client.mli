(** A blocking wire-protocol client: one TCP connection, one session.

    Thin by design — it speaks {!Protocol} frames over a socket and
    hands back decoded rows or the server's structured error. Used by
    the open-loop load generator ({!Loadgen}), the [aeq_load] CLI and
    the protocol test suite. Not thread-safe: one thread per client
    (the load generator gives each worker its own connection). *)

(** Either the server's structured error frame — a
    {!Aeq_exec.Query_error.t} or a protocol violation — or a
    transport-level failure (connect refused, connection reset, a
    malformed frame from the server). *)
type error = Wire of Protocol.err | Transport of string

val error_to_string : error -> string
(** A query error prints exactly as {!Aeq_exec.Query_error.to_string}
    prints it in process. *)

type t

val connect :
  ?host:string ->
  ?client:string ->
  ?priority:Aeq_exec.Scheduler.priority ->
  ?deadline_seconds:float ->
  port:int ->
  unit ->
  (t, error) result
(** TCP connect + [Hello] handshake. [host] defaults to 127.0.0.1;
    [priority] (default [Normal]) and [deadline_seconds] ride on every
    query this session submits. A server over its connection limit
    answers the connect with one [Overloaded] error frame —
    surfaced as [Error (Wire (Query (Overloaded _)))]. *)

val fetch_size : t -> int
(** The server's page size, from [Hello_ok]. *)

(** A complete decoded result (all pages fetched). *)
type rows = {
  names : string list;
  dtypes : string list;
  rows : string list list;
  exec_seconds : float;  (** server-side execution wall time *)
}

val prepare : t -> string -> (int * bool, error) result
(** [prepare t sql] returns [(stmt_id, cached)]; [cached] means an
    earlier session already paid the compile cost. *)

val execute : t -> string -> (rows, error) result
(** One-shot execute; transparently [Fetch]es every remaining page. *)

val execute_prepared : t -> int -> (rows, error) result

val cancel : t -> (unit, error) result
(** Send an out-of-band [Cancel]. Meaningful from a second thread
    while [execute] blocks — the server cancels the in-flight query at
    the next morsel boundary and [execute] returns
    [Error (Wire (Query Cancelled))]. From the session's own thread (idle
    session) the server just [Ack]s. *)

val close : t -> unit
(** Best-effort [Close] + socket close. Idempotent. *)
