(** The process-wide event log: query-lifecycle spans and adaptive
    controller decisions in one bounded {!Ring}.

    Spans cover parse → plan → codegen → optimize → translate →
    compile → execute. They need no parent pointers: spans on the same
    domain that overlap in time render as a flame graph in the Chrome
    trace viewer (slices nest by containment).

    A decision is one evaluation of the paper's Fig. 7 extrapolation,
    so a trace explains {e why} each mode switch — or non-switch —
    happened: what the controller saw (processed/remaining tuples, the
    measured rate), what it projected for staying put and for every
    candidate mode (blacklisted candidates priced at infinity and
    flagged), and what it chose.

    Recording is gated on {!Control.enabled}: with observability off
    {!with_span} is a single branch around calling [f], and
    {!span}/{!decision} do nothing. *)

type action = Stay | Promote of string  (** target mode name *)

type candidate = {
  c_mode : string;  (** "unoptimized" | "optimized" *)
  c_speedup : float;  (** the speedup vs bytecode it was priced with *)
  c_total_seconds : float;
      (** extrapolated total remaining-pipeline seconds if this mode
          were compiled now (compile latency included); [infinity] for
          blacklisted candidates *)
  c_blacklisted : bool;
}

type decision = {
  d_mode : string;  (** mode the rate was measured in *)
  d_processed : int;  (** tuples processed so far *)
  d_remaining : int;  (** tuples left *)
  d_rate : float;  (** measured tuples/second (per thread average) *)
  d_stay_seconds : float;  (** projected remaining seconds if no switch *)
  d_candidates : candidate list;
  d_action : action;
  d_reason : string;
      (** why: "extrapolated win", "status quo optimal",
          "already optimized", ... *)
}

type kind = Span of string | Decision of decision

type event = {
  kind : kind;
  domain : int;  (** the recording domain's id *)
  pipeline : int;  (** -1 when the event is not pipeline-scoped *)
  t0 : float;  (** absolute seconds ({!Aeq_util.Clock.now}) *)
  t1 : float;  (** equal to [t0] for a decision *)
}

val with_span : ?pipeline:int -> string -> (unit -> 'a) -> 'a
(** Run [f], recording the interval as a span named [name]. Records
    also when [f] raises (the span covers the failed attempt). *)

val span : ?pipeline:int -> string -> t0:float -> t1:float -> unit
(** Record an explicit interval. *)

val decision : pipeline:int -> decision -> unit
(** Record a controller evaluation, stamped now. *)

val snapshot : unit -> event list
(** Retained events, sorted by start time. *)

val clear : unit -> unit

val dropped : unit -> int
(** Events discarded because the log was full since the last {!clear}. *)
