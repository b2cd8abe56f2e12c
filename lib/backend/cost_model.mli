(** Compile-latency model.

    Our closure compiler is orders of magnitude cheaper than LLVM's
    backend, so on its own it could not reproduce the latency/
    throughput tradeoff every experiment in the paper rests on. This
    model layers the paper's measured cost *shape* on top of the real
    compilation work (see DESIGN.md, "Substitutions"):

    - bytecode translation: linear, sub-millisecond (kept real; the
      model only provides the controller's estimate);
    - unoptimized machine code: linear in the instruction count,
      roughly 6 µs per IR instruction (Fig. 6 / Table I);
    - optimized machine code: linear + quadratic per function — the
      quadratic term reproduces Fig. 15's explosive growth for
      machine-generated mega-functions while remaining negligible for
      ordinary pipelines. It is the only source of that super-linear
      growth: the real pass pipeline ([Aeq_passes.Pass_manager]) has
      no quadratic step of its own.

    The same model feeds the adaptive controller's extrapolation
    (paper Fig. 7), so decisions and simulated costs are consistent.
    [off] disables the simulated delay (tests, micro-benchmarks). *)

type t = {
  simulate : bool;  (** busy-wait to the modelled latency when compiling *)
  bc_base : float;
  bc_per_instr : float;
  unopt_base : float;
  unopt_per_instr : float;
  opt_base : float;
  opt_per_instr : float;
  opt_quad : float;  (** seconds per (instruction count)² *)
  speedup_unopt : float;  (** throughput vs bytecode: a seed ({!Calibration}) *)
  speedup_opt : float;
}

val default : t
(** Paper-shaped compile latencies, simulation on. The speed-up seeds
    are this build's closure tiers' measured steady state over its
    interpreter: 1.25 (unoptimized) and 1.40 (optimized). *)

val off : t
(** Same estimates for the controller, but no simulated delay:
    compile times are the real closure-compilation times. *)

val with_speedups : t -> unopt:float -> opt:float -> t
(** Override the speed-up seeds, where an engine's learned estimate
    starts. *)

type mode = Bytecode | Unopt | Opt

val mode_name : mode -> string
(** ["bytecode"] / ["unoptimized"] / ["optimized"] — the label used in
    traces, metrics and the event log. *)

val compile_time : t -> mode -> int -> float
(** [compile_time t mode n_instrs] — the modelled latency in seconds
    for one function of the given size. *)
