(** Arithmetic semantics shared by every execution backend.

    Register values are canonical: integers sign-extended to 64 bits,
    booleans 0/1, floats as IEEE bits. Defining each operation once
    and reusing it from the bytecode interpreter, the closure compiler
    and the direct IR evaluator makes the backends behave identically
    by construction — the property mode switching relies on.

    Overflow-checked operations and division raise {!Trap.Error}. *)

val sext8 : int64 -> int64

val sext16 : int64 -> int64

val sext32 : int64 -> int64

val add : width:int -> int64 -> int64 -> int64

val sub : width:int -> int64 -> int64 -> int64

val mul : width:int -> int64 -> int64 -> int64

val div : width:int -> int64 -> int64 -> int64
(** @raise Trap.Error on division by zero. *)

val rem : width:int -> int64 -> int64 -> int64

val shl : width:int -> int64 -> int64 -> int64

val lshr : width:int -> int64 -> int64 -> int64

val add_ovf : width:int -> int64 -> int64 -> bool
(** Would [a + b] overflow a signed [width]-bit integer? *)

val sub_ovf : width:int -> int64 -> int64 -> bool

val mul_ovf : width:int -> int64 -> int64 -> bool

val add_chk : width:int -> int64 -> int64 -> int64
(** @raise Trap.Error on overflow. *)

val sub_chk : width:int -> int64 -> int64 -> int64

val mul_chk : width:int -> int64 -> int64 -> int64

val ucmp : width:int -> int64 -> int64 -> int
(** Unsigned comparison of canonical values at the given width;
    negative/zero/positive like [compare]. *)

val bool_i64 : bool -> int64

val fp_of_bits : int64 -> float

val bits_of_fp : float -> int64
