(** Runtime helper functions callable from generated code.

    The paper's generated code calls into precompiled C++ (hash-table
    insertion, output buffers, ...) with its arguments in machine
    registers. Here helpers are OCaml closures over the query's
    runtime context, and a call allocates nothing: no operand or
    result is boxed.

    {1 Calling convention}

    A helper of arity [n] is called as [f regs o1 ... on]: [regs] is
    the caller's register file and [o1 ... on] are the byte offsets of
    its operand registers, the call instruction's own operand fields.
    The helper reads the operands it needs with {!get} (an [int64] read
    this way stays unboxed) and returns its result as an OCaml [int],
    which the caller sign-extends into the destination register or
    drops for a void call. Floats pass as IEEE bits and pointers as
    arena offsets; a result is a pointer, a flag or a small number, so
    63 bits hold it. The interpreter and the closure tier pass their
    own register file; the IR evaluator copies the call's operands
    into a scratch one.

    Arities are closed — "as we know all exported functions, we can
    identify missing opcodes at compile time" — so the translator
    rejects a call whose arity has no opcode. *)

type t =
  | F0 of (Bytes.t -> int)
  | F1 of (Bytes.t -> int -> int)
  | F2 of (Bytes.t -> int -> int -> int)
  | F3 of (Bytes.t -> int -> int -> int -> int)
  | F4 of (Bytes.t -> int -> int -> int -> int -> int)
  | F5 of (Bytes.t -> int -> int -> int -> int -> int -> int)

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64"
(** [get regs o] is the operand register at byte offset [o]: a
    primitive, so it is inlined into every helper and boxes nothing.
    @raise Invalid_argument if [o] is outside [regs]. *)

val arity : t -> int

type resolver = string -> t option
(** Symbol table handed to the translator / compiler. *)
