(** Compilation driver for the three execution modes of Fig. 3.

    Produces executable variants of an IR worker function:
    - [translate_bytecode]: fast linear translation (Section IV);
    - [compile_unopt_of_bytecode]: no IR passes, closure compilation
      of the translated bytecode ("fast instruction selection");
    - [compile] with {!Cost_model.Opt}: the full pass pipeline, then
      translation and closure compilation.

    Each call reports the wall-clock compile latency, which includes
    the cost-model delay when simulation is on. The input function is
    never mutated (the optimizer works on a copy). *)

type compiled = {
  exec : Closure_compile.t;
  compile_seconds : float;
  n_instrs_after : int;  (** IR size after passes (Opt shrinks it) *)
}

val translate_bytecode :
  ?strategy:Aeq_vm.Regalloc.strategy ->
  cost_model:Cost_model.t ->
  symbols:Aeq_vm.Rt_fn.resolver ->
  Func.t ->
  Aeq_vm.Bytecode.t * float

val compile :
  cost_model:Cost_model.t ->
  symbols:Aeq_vm.Rt_fn.resolver ->
  mem:Aeq_mem.Arena.t ->
  mode:Cost_model.mode ->
  Func.t ->
  compiled
(** Optimized compilation. [mode] must be [Opt]: the other tiers have
    one path each, {!translate_bytecode} and
    {!compile_unopt_of_bytecode}.
    @raise Invalid_argument on [Bytecode] or [Unopt]. *)

val compile_unopt_of_bytecode :
  cost_model:Cost_model.t ->
  mem:Aeq_mem.Arena.t ->
  n_instrs:int ->
  Aeq_vm.Bytecode.t ->
  compiled
(** Unoptimized closure compilation of an already-translated bytecode
    program: the one unoptimized path, so the IR is translated once
    and shared with the bytecode tier. [n_instrs] is the source
    function's IR size (drives the modelled latency). *)
