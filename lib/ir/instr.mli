(** Instructions of the SSA IR.

    The instruction set is the LLVM subset generated by a query
    compiler: integer/float arithmetic, overflow-check predicates
    (LLVM's [*.with.overflow] intrinsics, modeled as a separate flag
    instruction so that the bytecode translator can fuse the
    add/check/branch sequence into one macro-op exactly as Section
    IV-F describes), comparisons, casts, select, memory access with
    pointer arithmetic ([Gep]), calls into the runtime, and the usual
    terminators. φ nodes live on blocks, not in the instruction
    stream. *)

type value =
  | Vreg of int  (** SSA value id *)
  | Imm of int64  (** integer / pointer immediate *)
  | Fimm of float

type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | LShr | AShr

type ovf_op = OAdd | OSub | OMul
(** Which arithmetic operation the overflow flag refers to. *)

type fbinop = FAdd | FSub | FMul | FDiv

type icmp = Eq | Ne | Slt | Sle | Sgt | Sge | Ult | Ule | Ugt | Uge

type fcmp = FEq | FNe | FLt | FLe | FGt | FGe

type cast = Zext | Sext | Trunc | SiToFp | FpToSi | Bitcast

type t =
  | Binop of { op : binop; ty : Types.t; dst : int; a : value; b : value }
  | OvfFlag of { op : ovf_op; ty : Types.t; dst : int; a : value; b : value }
      (** [dst : i1] is 1 iff [a op b] overflows [ty]. *)
  | Fbinop of { op : fbinop; dst : int; a : value; b : value }
  | Icmp of { op : icmp; ty : Types.t; dst : int; a : value; b : value }
  | Fcmp of { op : fcmp; dst : int; a : value; b : value }
  | Select of { ty : Types.t; dst : int; cond : value; a : value; b : value }
  | Cast of { op : cast; from_ty : Types.t; to_ty : Types.t; dst : int; v : value }
  | Load of { ty : Types.t; dst : int; addr : value }
  | Store of { ty : Types.t; addr : value; v : value }
  | Gep of { dst : int; base : value; index : value; scale : int; offset : int }
      (** [dst = base + index * scale + offset]; the pointer-arithmetic
          shape emitted for column and struct access. *)
  | Call of {
      dst : (int * Types.t) option;
      sym : string;
      args : value array;
      arg_tys : Types.t array;
    }

type terminator =
  | Br of int
  | CondBr of { cond : value; if_true : int; if_false : int }
  | Ret of value option
  | Abort of string
      (** Runtime error (arithmetic overflow, division by zero). *)

type phi = { ty : Types.t; dst : int; incoming : (int * value) array }
(** [incoming] pairs a predecessor block id with the value flowing in
    along that edge. *)

val dst_of : t -> int option
(** The SSA value an instruction defines, if any. *)

val operands : t -> value list
(** All value operands read by the instruction. *)

val iter_operands : (value -> unit) -> t -> unit
(** [f] on each of [operands i], in order, without building the list. *)

val with_operands : t -> value list -> t
(** Rebuild the instruction with substituted operands, in the order
    [operands] returned them. Used by rewriting passes. *)

val with_dst : t -> int -> t
(** Rebuild the instruction with the given destination; identity for
    instructions without one. CSE uses this to build structural keys
    with the destination masked out. *)

val has_side_effect : t -> bool
(** Stores and calls may not be removed by dead-code elimination. *)

val value_equal : value -> value -> bool

val result_ty : t -> Types.t option
(** Type of the defined value, if any. *)
