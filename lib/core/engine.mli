(** The public API of the adaptive query engine.

    An engine owns an in-memory database (catalog + arena), a
    persistent worker pool, and a compile-cost model. SQL queries run
    in one of four execution modes:
    - [Driver.Bytecode]: translate every pipeline to VM bytecode and
      interpret (lowest latency);
    - [Driver.Unopt] / [Driver.Opt]: compile every pipeline up front
      (single-threaded), then execute — the classical compiling engine;
    - [Driver.Adaptive]: start interpreting on all threads and let the
      runtime controller decide per pipeline whether and how far to
      compile (the paper's contribution).

    {[
      let engine = Engine.create ~n_threads:8 () in
      Engine.load_tpch engine ~scale_factor:0.01;
      let r = Engine.query engine ~mode:Aeq_exec.Driver.Adaptive
                "select count(*) from lineitem" in
      List.iter print_endline (Engine.render_rows engine r)
    ]} *)

type t

val create :
  ?n_threads:int ->
  ?cost_model:Aeq_backend.Cost_model.t ->
  ?scheduler_config:Aeq_exec.Scheduler.config ->
  unit ->
  t
(** [n_threads] defaults to the machine's domain count (max 8);
    [cost_model] defaults to {!Aeq_backend.Cost_model.default} (pass
    [Aeq_backend.Cost_model.off] for real latencies only); its speedups
    only seed the estimate the engine learns ({!speedups}).
    [scheduler_config] (default {!Aeq_exec.Scheduler.default_config})
    configures the engine's scheduler, created here: every query is
    one of its tickets.

    The pool's workers are the engine's only domains: none until a
    query can use them, so loading tables never waits on an idle
    domain; [n_threads - 1] from the first query that runs a parallel
    pipeline (each query's runner is the n-th participant of its own
    jobs); and one more with the first {!submit}, since a queued
    ticket has no caller domain. Each catches its own crashes and
    goes on serving (see {!Aeq_exec.Pool}). *)

val load_tpch : ?seed:int64 -> t -> scale_factor:float -> unit

val catalog : t -> Aeq_storage.Catalog.t

val pool : t -> Aeq_exec.Pool.t

val n_threads : t -> int

val cost_model : t -> Aeq_backend.Cost_model.t

val speedups : t -> Aeq_backend.Calibration.t
(** What this engine's controller prices tiers with now. *)

val plan : t -> string -> Aeq_plan.Physical.t
(** Parse and plan [sql]. Raises the front end's own exceptions
    ([Aeq_sql.Lexer.Lex_error], [Aeq_sql.Parser.Parse_error],
    [Aeq_plan.Planner.Plan_error]); wrap the call in
    {!Aeq_exec.Query_error.protect} for a structured error. *)

val explain : t -> string -> string
(** The plan of [sql] as text; raises like {!plan}. *)

val query :
  ?mode:Aeq_exec.Driver.mode ->
  ?collect_trace:bool ->
  ?timeout_seconds:float ->
  ?cancel:Aeq_exec.Cancel.t ->
  ?memory_budget_bytes:int ->
  ?on_compile_failure:[ `Degrade | `Fail ] ->
  t ->
  string ->
  Aeq_exec.Driver.result
(** Plan + execute, on the calling domain. [mode] defaults to
    [Adaptive].

    The query is an in-process ticket of the engine's scheduler
    ({!Aeq_exec.Scheduler.run_inline}), run at once by the caller as
    tid 0 of its jobs: never queued, shed or degraded, with no queue
    bound, so it keeps its [mode] on a loaded server and needs no
    pool worker. It counts in {!scheduler_stats}
    ([admitted], [completed]/[failed], [in_flight]; not the waits).
    While the engine drains it raises
    [Query_error.Error (Rejected "draining")]; {!drain} and {!close}
    wait for it.

    Thread-safe and concurrent: each execution runs over its own
    runtime context and a private arena lease, so any number of
    callers execute simultaneously — including re-executions of the
    same cached statement. Callers contend only on the scheduler's
    admission lock and the plan-cache lookup; compiling a statement
    not yet cached is single-flighted (concurrent callers of the same
    new text wait for the one compilation, then all proceed on the
    cached plan). For serving many clients with a bounded queue,
    fairness, deadlines and load shedding, use {!submit}.

    Guardrails (see {!Aeq_exec.Driver.execute_prepared} for the full
    contract): [cancel] stops the query at the next morsel boundary.
    [timeout_seconds] is set as a deadline on that token (a fresh one
    if [cancel] is absent) when [query] is called, so parsing,
    planning and preparation count against it; the query raises
    [Timeout] at the first morsel boundary past it.
    [memory_budget_bytes] bounds its arena
    scratch, and [on_compile_failure] (default [`Degrade]) decides
    whether a failed up-front compilation degrades to bytecode or
    fails the query. Every failure — malformed SQL ([Parse_failed]),
    an unplannable statement ([Plan_failed]), and everything that can
    go wrong while it runs — raises {!Aeq_exec.Query_error.Error}
    after guaranteed cleanup: the cached prepared statement, the
    arena and the worker pool all stay healthy, so the next query —
    including a cache-hit re-execution of the failing text — runs
    normally. The only exceptions that escape unclassified are a
    domain crash ({!Aeq_util.Probe.is_crash}), which a pool worker's
    crash handler answers, and [Invalid_argument] on a closed
    engine.

    Queries are cached by text as prepared statements: the physical
    plan, the translated bytecode, and every machine-code variant
    promoted during execution all survive, so a repeated query pays
    neither planning, codegen, translation nor recompilation (its
    [stats] report ~0 for those phases). Only statements that repeat
    stay cached (see {!set_plan_cache_capacity}): a back-to-back
    repeat is always a hit, and a one-shot generated statement holds
    no cache memory once the next new text arrives. The worker IR is not kept: a
    pipeline's first Opt promotion rebuilds it from the plan, inside
    its compile time. On top of
    the compiled-artifact reuse, adaptive re-executions keep the
    paper's Section VI mode memory: each pipeline starts in the mode
    it converged to previously, so frequently-run queries end up fully
    compiled without ever paying an up-front compilation on a cold
    path. *)

val verify_query : t -> string -> (unit, string) result
(** Translation validation at the query level: run [sql] in every
    execution mode ([Bytecode], [Unopt], [Opt], [Adaptive]) and check
    that all agree with the bytecode interpreter — same column names
    and the same sorted bag of rows, or the same refusal to execute.
    [Error report] describes each diverging mode. Combine with
    [Aeq_util.Verify_mode.set true] (or [AEQ_VERIFY=1]) to also run
    the SSA and bytecode verifiers on every artifact built along the
    way. *)

val submit :
  ?mode:Aeq_exec.Driver.mode ->
  ?priority:Aeq_exec.Scheduler.priority ->
  ?deadline_seconds:float ->
  ?cancel:Aeq_exec.Cancel.t ->
  t ->
  string ->
  Aeq_exec.Scheduler.ticket
(** Enqueue a query on the engine's scheduler as a queued ticket and
    return without waiting; a pool worker runs it.
    [Scheduler.await (submit t sql)] is the blocking per-client call of
    a concurrent server loop. Unlike {!query}'s in-process ticket, a
    queued one is subject to the queue bound, priorities and load
    shedding: a full queue answers
    {!Aeq_exec.Query_error.Overloaded}, overload degrades execution to
    bytecode-only, and a [deadline_seconds] overrun answers [Rejected]
    while still queued or [Timeout] at the first morsel boundary once
    running.
    [submit] never raises: every outcome, an admission refusal
    included, is the ticket's answer, and every failure is a
    {!Aeq_exec.Query_error.t}. See {!Aeq_exec.Scheduler} for the full
    contract. *)

val scheduler_stats : t -> Aeq_exec.Scheduler.stats
(** Serving-health counters over every query, {!query} and {!submit}
    alike (admitted/rejected/shed/expired, completed/failed/degraded,
    queue depth and waits of queued tickets, crashes). *)

val prepare : t -> string -> unit
(** Plan + compile the statement into the cache without executing it
    (no compilation if already cached), and admit it to the LRU at
    once: an explicit prepare declares that the text will repeat. A
    later {!query} of the same text is a cache hit and starts
    executing immediately. Failures raise
    {!Aeq_exec.Query_error.Error}, as for {!query}. *)

val prepared : t -> string -> bool
(** Is this statement text currently resident in the plan cache,
    admitted or on probation? The wire server's [Prepare] handler
    reports this to clients (a session-level prepared handle stays
    valid across an LRU eviction — re-executing simply re-prepares —
    but the flag tells clients whether the compile cost was already
    paid). *)

val set_plan_cache : t -> bool -> unit
(** Disable/enable the plan cache ([true] by default). *)

val set_plan_cache_capacity : t -> int -> unit
(** Bound the number of admitted prepared statements (default 128,
    minimum 1). When full, the least-recently-used admitted statement
    is evicted.

    The cache admits only statements that repeat. A {!query} of a text
    seen for the first time is prepared, executed and kept in a single
    probation slot, outside the LRU. The next miss on a never-seen
    text drops that statement before it starts preparing and keeps
    only the dropped text's hash, in a first-in first-out doorkeeper
    of at most [capacity] hashes. A statement is admitted to the LRU
    by a hit on the probation entry (a repeat before the next new
    text, or a concurrent caller that waited for its compilation), by
    a miss whose hash the doorkeeper still holds (a repeat after a
    gap: it is prepared a second time), or by {!prepare}. So at most
    [capacity + 1] statements are resident, and a stream of one-shot
    texts keeps at most one of them. *)

val cached_executions : t -> string -> int
(** How often the given query text has executed through the cache. *)

type cache_stats = {
  hits : int;
  misses : int;
  evictions : int;  (** admitted statements evicted from the LRU *)
  unreused : int;  (** statements dropped from probation, never reused *)
  entries : int;  (** resident statements, the probation one included *)
}

val cache_stats : t -> cache_stats
(** Plan-cache counters since engine creation (or the last
    {!reset_stats}). A [query] or [prepare] that finds the statement
    cached, on probation or admitted, counts one hit; one that
    compiles it counts one miss. [unreused] is exported as
    [aeq_plan_cache_unreused_total]: on a one-shot workload it grows
    with the misses, on a repeating one it stays near zero. *)

val check : t -> string list
(** Plan-cache coherence: the LRU within its capacity, the probation
    text cached or the slot empty, the doorkeeper within the
    capacity, LRU stamps within the tick range, no text both cached
    and in-flight preparing, counters non-negative. Returns one
    message per violation (empty = coherent). Used as a quiescent-step
    invariant checker by the deterministic simulator ([Aeq_sim]). *)

val render_rows : t -> Aeq_exec.Driver.result -> string list
(** Result rows as tab-separated strings (dictionary decoded). *)

(** {1 Observability}

    The engine reports into the process-wide {!Aeq_obs} registry
    (metrics, and the event log of lifecycle spans and adaptive
    decisions) when
    observability is enabled — [AEQ_OBS=1] in the environment, or
    [Aeq_obs.Control.set_enabled true] before the engine is created.
    When disabled, the per-morsel hot path pays a single branch. *)

val metrics : unit -> Aeq_obs.Metrics.sample list
(** Snapshot of the process-wide metrics registry (counters, gauges,
    histograms from every engine, scheduler and pass pipeline in the
    process). *)

val render_metrics : unit -> string
(** The registry in Prometheus text exposition format v0.0.4. *)

val dump_metrics : string -> unit
(** Write {!render_metrics} to a file (e.g. for a textfile-collector
    scrape). *)

val reset_stats : t -> unit
(** Start a fresh observation window: zero all registry counters and
    histograms (gauges keep their value — they describe current state),
    empty the {!Aeq_obs.Event_log} of spans and decisions and zero its
    dropped counter, zero this engine's plan-cache hit, miss,
    eviction and unreused counters, and zero the scheduler's serving counters. Cached prepared statements and queued work are untouched —
    this resets measurement, not behavior. Intended for windowed
    scraping of long-running serves: scrape, reset, serve, scrape. *)

(** {1 Health, drain & self-healing}

    Each pool worker catches its own crashes (an unstructured
    exception escaping one job or ticket): the crash is contained, its
    orphaned state reclaimed — the affected client gets a structured
    [Query_error.Worker_crashed] instead of a hung [await] — and the
    worker takes its next task at once. The engine reads
    [Degraded] for one second after any worker's crash. *)

type health =
  | Serving  (** no pool worker crashed within the last second *)
  | Degraded of string list
      (** one reason per pool worker that crashed within the last
          second, naming it and its crash count *)
  | Draining  (** {!drain} in progress: admission closed *)
  | Stopped  (** {!close} (or a finished {!drain}) *)

val health : t -> health

val health_name : health -> string
(** ["serving"] / ["degraded"] / ["draining"] / ["stopped"] — the
    [aeq_engine_health] gauge exports the same states as 0–3. *)

val drain : ?deadline_seconds:float -> t -> bool
(** Graceful shutdown: stop admission (a new {!query} raises and a new
    {!submit}'s ticket answers [Query_error.Rejected "draining"], also
    once the drain has closed the engine), wait up to
    [deadline_seconds] (default 30) for queued and in-flight queries,
    in-process ones included, to finish — past the deadline they are
    rejected/cancelled so no client hangs — then {!close}. Returns
    [true] if quiescence was reached before the deadline. Idempotent in
    effect; the SIGTERM path of [aeq_server] ([Aeq_net.Server.drain]). *)

val draining : t -> bool

val close : t -> unit
(** Shut down: the scheduler first (queued queries complete with
    [Rejected], in-flight ones finish on their workers or in-process
    callers, and the call waits for them), then the worker pool.
    Idempotent; queries on a closed engine raise [Invalid_argument]. *)

val closed : t -> bool
