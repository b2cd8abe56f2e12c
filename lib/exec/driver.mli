(** End-to-end query execution: the queryStart role of the paper's
    Fig. 4, in OCaml (it runs once per query and never pays off to
    compile).

    Sets up the runtime context and objects, generates and translates
    the pipeline workers, then runs each pipeline with morsel-driven
    parallelism. In [Adaptive] mode every pipeline starts in the
    bytecode interpreter on all threads; after each morsel the
    controller may decide to compile, in which case the deciding
    thread compiles (its lane shows a 'C' burst in the trace) while
    the others keep interpreting, and all threads pick up the new
    variant on their next morsel. Static modes compile every pipeline
    up front, single-threaded, exactly like a classical compiling
    engine.

    Execution is split into {!prepare} (codegen + bytecode
    translation, once per plan) and {!execute_prepared} (everything
    per-execution). A {!prepared} value is a prepared statement: its
    compiled artifacts — bytecode programs and any machine-code
    variants promoted during earlier executions — survive, so repeated
    executions pay no codegen, translation or recompilation cost.
    {!execute} composes the two for one-shot use. *)

type mode = Bytecode | Unopt | Opt | Adaptive

val mode_name : mode -> string

type stats = {
  codegen_seconds : float;
      (** IR generation; 0 on prepared re-executions (already paid) *)
  bc_seconds : float;
      (** bytecode translation, all pipelines; 0 on prepared re-executions *)
  compile_seconds : float;
      (** machine-code compilation paid {e this} execution (incl.
          adaptive); promoting to a variant cached by an earlier
          execution costs 0 *)
  exec_seconds : float;  (** pipeline execution wall time *)
  total_seconds : float;
  rows_out : int;
  final_modes : string list;  (** execution mode of each pipeline at completion *)
  prepared_reuse : bool;
      (** this run reused a previously-executed prepared statement *)
  compile_failures : int;
      (** promotions that failed and degraded this execution (static
          installs, warm starts, and adaptive upgrades); each one
          blacklisted its mode *)
}

type result = {
  names : string list;
  dtypes : Aeq_storage.Dtype.t list;
  rows : int64 array list;  (** ordered, limited *)
  stats : stats;
  trace : Trace.t option;
  final_cm_modes : Aeq_backend.Cost_model.mode list;
      (** machine-readable variant of [stats.final_modes], usable as
          the next execution's [initial_modes] *)
}

type prepared
(** A compiled plan: each pipeline's translated bytecode, the variants
    promoted so far, and a generator that rebuilds the pipeline's
    worker IR from the retained plan when the optimizing tier needs
    it. The IR translated at prepare time is not kept: it is larger
    than the bytecode, and only an Opt promotion reads it.
    Re-executable any number of times, including concurrently with
    itself — each execution builds its own runtime context over a
    private arena lease, and the compiled artifacts resolve runtime
    objects through the domain-current context rather than a baked-in
    one. *)

val prepare :
  cost_model:Aeq_backend.Cost_model.t ->
  Aeq_storage.Catalog.t ->
  Aeq_plan.Physical.t ->
  n_threads:int ->
  prepared
(** Generate and bytecode-translate every pipeline worker.
    [n_threads] is the widest pool the statement may later execute
    on. [cost_model] prices every compilation and drives the adaptive
    controller; pass the engine's calibrated model
    ([Engine.cost_model]) or [Cost_model.off]. *)

val execute_prepared :
  ?collect_trace:bool ->
  ?initial_modes:Aeq_backend.Cost_model.mode list ->
  ?cancel:Cancel.t ->
  ?memory_budget_bytes:int ->
  ?on_compile_failure:[ `Degrade | `Fail ] ->
  prepared ->
  mode:mode ->
  pool:Pool.t ->
  result
(** Execute a prepared statement. Each execution is self-contained: a
    scratch arena lease, a fresh runtime context, and per-execution
    handle bindings, so concurrent executions (of this or other
    statements) share only immutable state. Static modes install
    their variant first, reusing cached compilations; adaptive
    executions can warm-start from [initial_modes].

    Guardrails (all cooperative, checked at morsel boundaries):
    - [cancel] is a token any thread may {!Cancel.cancel}; its
      deadline ({!Cancel.set_deadline}), if any, is enforced here too
      and fails the query with [Timeout];
    - [memory_budget_bytes] bounds the arena scratch this execution
      may allocate;
    - [on_compile_failure] (default [`Degrade]) chooses what a failed
      static compilation does: degrade to the pipeline's current mode
      or fail the query with [Compile_failed]. Adaptive mid-query
      upgrades and warm starts always degrade. Either way the failed
      mode is blacklisted on the handle and never attempted again.

    On any failure the query raises [Query_error.Error] {e after}
    cleanup: the first worker error stops the remaining domains at
    their next morsel boundary, the scratch lease is released back to
    the arena, and the prepared statement stays reusable — concurrent
    and future executions (of this or any other statement) are
    unaffected.

    The execution runs at [min (Pool.n_threads pool) n_threads]
    workers, where [n_threads] is the width the statement was
    prepared with. Join tables are linked at the barrier after their
    build pipeline; a pipeline that probes a table not yet linked is
    refused: the query fails with a [Trap] naming the pipeline.
    Result rows stay in the lease while they are sorted and limited;
    only the returned rows are copied out.

    @raise Query_error.Error on trap / timeout / cancellation /
    budget breach / non-degraded compile failure. *)

val prepared_executions : prepared -> int
(** How many times the statement has executed. *)

val prepared_modes : prepared -> Aeq_backend.Cost_model.mode list
(** Best cached variant of each pipeline (what the next execution can
    start in for free). *)

val prepared_handles : prepared -> Handle.compiled array
(** The compiled part of each pipeline's handle, in pipeline order. *)

val execute :
  cost_model:Aeq_backend.Cost_model.t ->
  ?collect_trace:bool ->
  ?initial_modes:Aeq_backend.Cost_model.mode list ->
  ?cancel:Cancel.t ->
  ?memory_budget_bytes:int ->
  ?on_compile_failure:[ `Degrade | `Fail ] ->
  Aeq_storage.Catalog.t ->
  Aeq_plan.Physical.t ->
  mode:mode ->
  pool:Pool.t ->
  result
(** [prepare] + [execute_prepared]: plan-to-rows in one call, nothing
    cached afterwards. Query scratch memory is released (the arena
    lease returns to the free pool) before returning; result rows are
    decoded into OCaml arrays first.

    [initial_modes] (adaptive mode only) pre-compiles the listed
    pipelines before execution starts — the plan-caching extension of
    the paper's Section VI: when a cached query's pipeline ended in a
    compiled mode last time, later executions start there instead of
    re-learning. *)

val row_to_strings : Aeq_storage.Catalog.t -> Aeq_storage.Dtype.t list -> int64 array -> string list
(** Render one result row (decimal scaling, date and dictionary
    decoding). *)
