(** Worker-function handles (paper Fig. 5).

    A handle stores every available representation of one pipeline's
    worker function. Workers pick the current best variant for every
    morsel; switching execution modes is a single atomic store, and
    because all variants operate on the same arena state, remaining
    morsels continue seamlessly in the new mode.

    The handle is split in two:

    - {!compiled} is execution-independent: the translated bytecode
      program, a generator that rebuilds the worker's IR, every
      machine-code (closure) variant built so far, and the per-mode
      blacklists. It is what a prepared statement caches — surviving
      artifacts make re-executions skip codegen, bytecode translation
      and recompilation entirely. The IR itself is not kept: only an
      optimized compile reads it, and a worker's IR is larger than
      its bytecode, so the optimizing tier rebuilds it on demand.
    - {!t} binds a [compiled] to one execution: cost model, symbol
      resolver, arena, plus the {e installed} variant and the
      compile-in-flight flag. Bindings are cheap throwaway records
      created per execution, so two concurrent executions of the same
      cached plan adapt independently — one promoting to Opt does not
      yank the variant under the other mid-morsel.

    Compiled artifacts stay valid across executions because their
    runtime closures resolve the {e domain-current}
    {!Aeq_rt.Context.t} per call rather than closing over one
    execution's tables. *)

type variant =
  | V_bytecode of Aeq_vm.Bytecode.t
  | V_compiled of Aeq_backend.Cost_model.mode * Aeq_backend.Closure_compile.t

type compiled = {
  bytecode : Aeq_vm.Bytecode.t;
  n_instrs : int;  (** IR size of the worker *)
  bc_translate_seconds : float;
  regenerate : unit -> Func.t;
      (** builds the worker's IR again, identical to the one translated;
          called by an Opt promotion *)
  unopt : Aeq_backend.Closure_compile.t option Atomic.t;  (** cached Unopt variant *)
  opt : Aeq_backend.Closure_compile.t option Atomic.t;  (** cached Opt variant *)
  compile_seconds : float Atomic.t;  (** compilation latency over the artifact's lifetime *)
  unopt_blacklisted : bool Atomic.t;  (** Unopt compilation failed once; never retry *)
  opt_blacklisted : bool Atomic.t;  (** Opt compilation failed once; never retry *)
}

type t = {
  c : compiled;
  cost_model : Aeq_backend.Cost_model.t;
  symbols : Aeq_vm.Rt_fn.resolver;
  mem : Aeq_mem.Arena.t;
  current : variant Atomic.t;  (** the variant run_morsel dispatches to *)
  compiling : bool Atomic.t;  (** a compile task is in flight for this execution *)
}

val compile_worker :
  cost_model:Aeq_backend.Cost_model.t ->
  symbols:Aeq_vm.Rt_fn.resolver ->
  regenerate:(unit -> Func.t) ->
  Func.t ->
  compiled
(** Translate to bytecode (always available, fast). The result starts
    with no machine-code variants built and does not hold on to the
    function; [regenerate] must rebuild an identical one (code
    generation is deterministic, see {!Aeq_codegen.Codegen}). *)

val bind :
  compiled ->
  cost_model:Aeq_backend.Cost_model.t ->
  symbols:Aeq_vm.Rt_fn.resolver ->
  mem:Aeq_mem.Arena.t ->
  t
(** Fresh per-execution binding; starts in the bytecode variant. *)

val mode : t -> Aeq_backend.Cost_model.mode
(** The variant installed in this binding. *)

val mode_of_compiled : compiled -> Aeq_backend.Cost_model.mode
(** The best variant the artifact has cached (Opt > Unopt > Bytecode):
    what a fresh execution can promote to without compiling. *)

val compiling : t -> bool Atomic.t

val n_instrs : t -> int

val install : t -> variant -> unit

val run_morsel :
  t -> regs:Bytes.t ref -> state:int -> first:int -> last:int -> tid:int -> unit
(** Execute one morsel, rows [\[first, last)], with the current
    variant, growing the caller's scratch register file if the variant
    needs more space. The worker's parameters are written into their
    register slots as ints and the variant runs through
    [Interp.exec] or [Closure_compile.exec]: a morsel allocates
    nothing. *)

val blacklisted : t -> Aeq_backend.Cost_model.mode -> bool
(** The mode's compilation failed earlier (this execution or a
    previous one of the same prepared statement); it must not be
    retried. [Bytecode] is never blacklisted — the interpreter is the
    always-available escape hatch. *)

val promote : t -> mode:Aeq_backend.Cost_model.mode -> float
(** Install the given mode's variant and return the compile latency
    paid now: 0 if the binding is already in that mode or the variant
    was cached from an earlier execution; otherwise the variant is
    compiled (blocking; run it on the thread that volunteered),
    cached for future executions, and installed. [Bytecode] reinstalls
    the interpreter (free). [Unopt] compiles the cached bytecode;
    [Opt] first rebuilds the IR with [regenerate], and the latency it
    returns includes that rebuild.

    Compilation is fallible: the failpoints ["compile.unopt"] /
    ["compile.opt"] are hit just before compiling, and any exception
    (injected or real) blacklists the mode before propagating — the
    binding stays in its current variant and the mode is never
    attempted again.
    @raise Query_error.Error
      [(Compile_failed _)] when asked to promote to an
      already-blacklisted mode. *)
