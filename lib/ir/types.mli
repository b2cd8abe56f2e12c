(** Scalar types of the IR.

    The IR is a typed SSA language mirroring the LLVM subset a
    HyPer-style query compiler emits. Pointers are 64-bit byte offsets
    into the {!Aeq_mem.Arena} (see DESIGN.md). *)

type t =
  | I1  (** booleans / comparison results *)
  | I8
  | I16
  | I32
  | I64
  | F64
  | Ptr  (** arena offset; same width as [I64] *)

val size_of : t -> int
(** Byte width when stored in memory or a register slot. [I1] occupies
    one byte. *)


val is_integer : t -> bool

val is_float : t -> bool

val equal : t -> t -> bool

val to_string : t -> string

val pp : Format.formatter -> t -> unit
