(** The "machine code" backend: compiles bytecode into chains of OCaml
    closures (threaded code).

    Each straight-line chunk of the program becomes a single composed
    closure with all register offsets, literals and runtime-function
    targets captured as immediates — no per-instruction decode or
    dispatch remains, which is what makes execution faster than the
    interpreter's fetch/decode loop. The compiled form runs over the
    same register-file layout and the same arena as the interpreter,
    so a pipeline can switch from bytecode to compiled code between
    any two morsels without losing work.

    The per-instruction closure construction plus chunk composition is
    the real (measured) component of compile time; the LLVM-magnitude
    cost is modelled on top by {!Cost_model} (see DESIGN.md).

    Running compiled code allocates nothing on the OCaml heap: every
    closure reads and writes its operands in the register file, the
    integer primitives are inlined [int64] code as in
    {!Aeq_vm.Interp}, fused pairs pass a producer's result through its
    register slot or as an unboxed local (never as an operator passed
    as a value, which would box), and a runtime call hands the helper
    the register file and the instruction's operand offsets
    ({!Aeq_vm.Rt_fn}'s convention). *)

type t

val compile : Aeq_vm.Bytecode.t -> Aeq_mem.Arena.t -> t
(** Compile for execution against the given arena (captured). *)

val run : t -> ?regs:Bytes.t -> args:int64 array -> unit -> int64
(** Execute. [regs], if given, must hold at least [n_reg_bytes].
    @raise Trap.Error on overflow / division by zero / abort. *)

val exec : t -> Bytes.t -> unit
(** [exec t regs] runs over [regs] as the caller left it: the slots
    {!param_offsets} names hold the arguments, and only the constant
    pool is copied in. The result is dropped. A pipeline worker runs
    a morsel this way, allocating nothing.
    @raise Invalid_argument if [regs] is shorter than [n_reg_bytes].
    @raise Trap.Error on overflow / division by zero / abort. *)

val param_offsets : t -> int array
(** The register slot of each parameter. *)

val n_reg_bytes : t -> int

val scratch : t -> Bytes.t
