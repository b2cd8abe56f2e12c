(** The bytecode interpreter — a single dispatch loop over the
    fixed-length instructions (paper Fig. 8), decoding from the packed
    words of {!Bytecode.t} only the fields each opcode uses. Opcodes
    and jump targets are not checked as it runs: the program comes
    from [Translate], or passes [Bc_verify.check_program].

    The register file is a byte buffer; callers running many morsels
    reuse one scratch buffer per worker thread to mimic the paper's
    stack allocation. *)

val run :
  Bytecode.t -> Aeq_mem.Arena.t -> ?regs:Bytes.t -> args:int64 array -> unit -> int64
(** Execute the program; returns the [ret] value ([0L] for void
    functions). [regs], if given, must be at least [n_reg_bytes]
    long. Register operands are not checked as it runs: the program
    must have passed {!Bytecode.check_registers}, as every program
    [Translate] builds has.

    @raise Invalid_argument if [regs] is shorter than [n_reg_bytes].
    @raise Trap.Error on overflow / division by zero / abort. *)

val scratch : Bytecode.t -> Bytes.t
(** A register file large enough for the program. *)
