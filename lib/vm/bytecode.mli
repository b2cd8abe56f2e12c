(** Translated VM programs.

    A program is an array of fixed-length instructions over a byte-
    addressed register file ([a]/[b]/[c]/[d]/[e] are register byte
    offsets, branch targets, or small immediates depending on the
    opcode; [lit] carries literals such as packed GEP scale/offset or
    runtime-function indices). The register file prefix holds the
    constant pool (slots 0 and 1 are always the constants 0 and 1, as
    in the paper) followed by the function parameters. *)

type insn = {
  op : Opcode.t;
  a : int;
  b : int;
  c : int;
  d : int;
  e : int;
  lit : int64;
}

type t = {
  name : string;
  code : insn array;
  n_reg_bytes : int;  (** register-file size — the paper's Sec. IV-C metric *)
  const_pool : int64 array;  (** copied into the register-file prefix on entry *)
  param_offsets : int array;  (** register slot of each parameter *)
  rt_table : Rt_fn.t array;  (** resolved runtime-call targets *)
  messages : string array;  (** abort messages, indexed by [AbortOp.a] *)
  src_instr_count : int;  (** IR size this was translated from *)
}

val pack_scale_offset : scale:int -> offset:int -> int64
(** GEP literals: scale in the low 32 bits, byte offset in the high
    32, both as signed values with |x| < 2^31. *)

val unpack_scale : int64 -> int

val unpack_offset : int64 -> int
