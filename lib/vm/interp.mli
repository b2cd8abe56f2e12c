(** The bytecode interpreter — a single dispatch loop over the
    fixed-length instructions (paper Fig. 8), decoding from the packed
    words of {!Bytecode.t} only the fields each opcode uses. Opcodes
    and jump targets are not checked as it runs: the program comes
    from [Translate], or passes [Bc_verify.check_program].

    The register file is a byte buffer; callers running many morsels
    reuse one scratch buffer per worker thread to mimic the paper's
    stack allocation.

    {1 Allocation}

    Running a program allocates nothing on the OCaml heap, whatever
    its opcodes: integer arithmetic at every width, checked
    arithmetic, overflow flags, division and unsigned compares run as
    [int64] primitives inlined into the dispatch loop (each computes
    what its {!Semantics} counterpart computes, traps included, which
    a call into [Semantics] would box), and a runtime call passes
    [regs] and the instruction's operand offsets to the helper and
    stores the [int] it returns ({!Rt_fn}'s convention). Only
    {!run}'s [int64] result and argument array are boxed, which is why
    a pipeline worker's morsels go through {!exec}. *)

val run :
  Bytecode.t -> Aeq_mem.Arena.t -> ?regs:Bytes.t -> args:int64 array -> unit -> int64
(** Execute the program; returns the [ret] value ([0L] for void
    functions). [regs], if given, must be at least [n_reg_bytes]
    long. Register operands are not checked as it runs: the program
    must have passed {!Bytecode.check_registers}, as every program
    [Translate] builds has.

    @raise Invalid_argument if [regs] is shorter than [n_reg_bytes].
    @raise Trap.Error on overflow / division by zero / abort. *)

val exec : Bytecode.t -> Aeq_mem.Arena.t -> Bytes.t -> unit
(** [exec p mem regs] runs [p] over [regs] as the caller left it: the
    parameter slots ([p.param_offsets]) hold the arguments, and only
    the constant pool is copied in. The result, if any, is dropped.
    This is how a pipeline worker runs a morsel: the driver writes
    the morsel's bounds into the parameter slots as ints, and nothing
    is allocated, neither for the arguments nor for the run.
    @raise Invalid_argument if [regs] is shorter than [n_reg_bytes].
    @raise Trap.Error on overflow / division by zero / abort. *)

val scratch : Bytecode.t -> Bytes.t
(** A register file large enough for the program. *)
