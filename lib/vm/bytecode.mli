(** Translated VM programs.

    A program is a sequence of fixed-length instructions over a byte-
    addressed register file ([a]/[b]/[c]/[d]/[e] are register byte
    offsets, branch targets, or small immediates depending on the
    opcode; [lit] carries literals such as packed GEP scale/offset or
    runtime-function indices). The register file prefix holds the
    constant pool (slots 0 and 1 are always the constants 0 and 1, as
    in the paper) followed by the function parameters.

    {1 Layout}

    Instruction [pc] is slot [pc] of three parallel [int] arrays, three
    words in all and nothing boxed:
    - [code.(pc)]: the opcode in bits 0–7, [a] in bits 8–34 and [b] in
      bits 35–61 (27 bits each);
    - [ext.(pc)]: [c] in bits 0–20, [d] in bits 21–41 and [e] in bits
      42–62 (21 bits each);
    - [lits.(pc)]: the literal, an unboxed [int].

    The five fields are unsigned: up to 2{^27}-1 for [a] and [b], up to
    2{^21}-1 for [c], [d] and [e]. Encoding a value outside its field
    raises {!Unsupported} naming the field; nothing is wrapped.
    [Array.length code] is the instruction count.

    The interpreter decodes the fields each opcode uses straight from
    the words; everything else reads an instruction through {!get}. *)

exception Unsupported of string
(** A construct the encoding cannot represent. [Translate.Unsupported]
    is this exception. *)

type insn = {
  op : Opcode.t;
  a : int;
  b : int;
  c : int;
  d : int;
  e : int;
  lit : int;
}
(** One instruction, decoded: a view, not the stored form. *)

type t = {
  name : string;
  code : int array;  (** opcode, [a], [b]: one word per instruction *)
  ext : int array;  (** [c], [d], [e]: one word per instruction *)
  lits : int array;  (** the literal: one word per instruction *)
  n_reg_bytes : int;  (** register-file size — the paper's Sec. IV-C metric *)
  const_pool : int64 array;  (** copied into the register-file prefix on entry *)
  param_offsets : int array;  (** register slot of each parameter *)
  rt_table : Rt_fn.t array;  (** resolved runtime-call targets *)
  messages : string array;  (** abort messages, indexed by [AbortOp.a] *)
  src_instr_count : int;  (** IR size this was translated from *)
}

val op_bits : int
(** Width of the opcode field: 8. *)

val ab_bits : int
(** Width of the [a] and [b] fields: 27. *)

val cde_bits : int
(** Width of the [c], [d] and [e] fields: 21. *)

val encode_code : Opcode.t -> a:int -> b:int -> int
(** The [code] word of an instruction.
    @raise Unsupported if [a] or [b] does not fit. *)

val encode_ext : c:int -> d:int -> e:int -> int
(** The [ext] word of an instruction.
    @raise Unsupported if [c], [d] or [e] does not fit. *)

val get : t -> int -> insn
(** [get t pc] decodes instruction [pc].
    @raise Invalid_argument if [pc] is out of bounds or the stored
    opcode is not one. *)

val set : t -> int -> insn -> unit
(** [set t pc i] encodes [i] into slot [pc]; the slot is unchanged if
    encoding raises.
    @raise Unsupported if a field of [i] does not fit. *)

val check_registers : t -> unit
(** The build-time check of a program's register operands. Every
    register field of every instruction (the fields the interpreter
    reads and writes as registers, not jump targets or message
    indices), every parameter offset and the constant pool must be
    aligned 8-byte slots inside [\[0, n_reg_bytes - 8\]], and the
    three instruction arrays must have one length and valid opcodes.
    [Translate] runs it on every program it builds, whatever
    [AEQ_VERIFY] says; the interpreter and the closure tier then read
    and write registers without a bounds check.
    @raise Invalid_argument naming the first offending operand. *)

val pack_scale_offset : scale:int -> offset:int -> int
(** GEP literals: scale in the low 32 bits and byte offset above them,
    both signed, with -2{^31} <= scale < 2{^31} and -2{^30} <= offset <
    2{^30}. For those values the number equals the 64-bit packing
    [offset * 2^32 + (scale land 0xffff_ffff)].
    @raise Unsupported if either does not fit. *)

val unpack_scale : int -> int

val unpack_offset : int -> int
