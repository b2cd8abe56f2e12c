(** The wire server: a socket front-end over [Engine.submit].

    One accept thread multiplexes the wire listener, the optional
    metrics/health HTTP listener and a shutdown wake pipe; each
    accepted wire connection gets a session thread speaking the
    {!Protocol} frame protocol. Sessions are systhreads, not domains —
    they spend their life blocked on socket I/O or on a scheduler
    ticket, so they must not consume the (small, fixed) domain budget
    the worker pool is sized against.

    A session is a [Hello] handshake followed by
    [Prepare]/[Execute]/[Execute_prepared]/[Fetch]/[Cancel]/[Close]
    frames. Queries enter the engine through [Engine.submit], i.e.
    through admission control: the session's [Hello] priority and
    deadline ride on every submit, a full queue comes back as a
    structured [Overloaded] frame, and drain rejects as [Rejected].
    While a query is in flight the session polls its ticket and
    [select]s the socket, so an out-of-band [Cancel] frame cancels the
    running query at the next morsel boundary.

    Overload is shed at the edge too: a connection over
    [max_connections] is answered with one [Err Overloaded] frame and
    closed, before a session (or any engine work) exists for it.

    Shutdown: {!drain} (the SIGTERM path) stops accepting, lets
    in-flight queries finish through [Engine.drain] — which walks the
    engine's health gauge Serving → Draining → Stopped — flushes each
    session's final response, then closes every socket. {!stop} is the
    test-oriented immediate variant: it stops serving without
    draining or closing the engine. *)

type config = {
  port : int;  (** wire listener port; 0 picks an ephemeral port *)
  metrics_port : int option;
      (** HTTP listener for [GET /metrics] (Prometheus text
          exposition) and [GET /healthz]; [Some 0] picks an ephemeral
          port, [None] disables HTTP *)
  max_connections : int;
      (** connection limit; excess connections are shed with one
          structured [Overloaded] error frame *)
  fetch_size : int;  (** rows per [Result]/[Rows] page *)
}
(** Every server advertises itself as ["aeq"] in [Hello_ok], runs its
    queries in [Adaptive] mode and bounds frames (both directions) at
    {!Protocol.default_max_frame_bytes}. *)

val default_config : config
(** Port 7878, no HTTP listener, 64 connections, 256-row pages. *)

type t

val start : ?config:config -> Aeq.Engine.t -> t
(** Bind the listeners (loopback) and start the accept thread.
    @raise Unix.Unix_error when a port cannot be bound. *)

val port : t -> int
(** The bound wire port (resolves an ephemeral request). *)

val metrics_port : t -> int option

val active_sessions : t -> int

val connections_shed : t -> int
(** Connections refused over [max_connections] since start. *)

val draining : t -> bool

val drain : ?deadline_seconds:float -> t -> bool
(** Graceful shutdown, idempotent: stop accepting (the listener
    sockets close, so new connects are refused at the TCP level),
    drain the engine — in-flight queries finish, queued ones complete,
    admission rejects, the engine closes — wait for busy sessions to
    flush their final response, then close every session socket and
    join the session threads. Returns [true] if the engine reached
    quiescence before [deadline_seconds] (default 30). *)

val stop : t -> unit
(** Immediate shutdown for in-process tests and benches: stop
    accepting, close every session socket, join the threads. The
    engine is left untouched (not drained, not closed). Idempotent;
    a no-op after {!drain}. *)

val install_signal_handlers : ?deadline_seconds:float -> t -> unit
(** Wire SIGTERM and SIGINT to {!drain}: the handler only flips an
    atomic flag; a monitor thread notices and runs the drain (signal
    handlers must not take locks). A second signal force-exits the
    process. *)

val wait : t -> bool
(** Block until the server is stopped (by {!drain}, {!stop} or a
    signal) — the main thread of [aeq_server]. Returns what the drain
    returned ([false]: forced at its deadline); [true] after {!stop}. *)
