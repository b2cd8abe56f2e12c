(** Imperative construction API for IR functions.

    The query code generator builds workers with this module: create
    blocks, position an insertion point, append typed instructions.
    Values are returned as {!Instr.value}s so they can be used as
    operands directly. [finish] seals the function; callers should
    then run {!Cfg.reorder_rpo} (the bytecode translator requires
    reverse-postorder block numbering). *)

type t

val create : name:string -> params:Types.t list -> t

val param : t -> int -> Instr.value
(** [param b i] is the i-th function parameter. *)

val new_block : t -> int
(** Allocate an empty block and return its id (does not move the
    insertion point). *)

val switch_to : t -> int -> unit
(** Move the insertion point to the given block. *)

val current_block : t -> int

(** {1 Instructions} — each appends at the insertion point and returns
    the defined value. *)

val binop : t -> Instr.binop -> Types.t -> Instr.value -> Instr.value -> Instr.value

val checked : t -> Instr.ovf_op -> Types.t -> Instr.value -> Instr.value -> Instr.value
(** Overflow-checked arithmetic: emits the compute instruction, the
    overflow-flag instruction and a conditional branch to a shared
    trap block — the 4-instruction LLVM pattern of Section IV-F that
    the bytecode translator later fuses into one macro-op. The
    insertion point moves to the continuation block. *)

val fbinop : t -> Instr.fbinop -> Instr.value -> Instr.value -> Instr.value

val icmp : t -> Instr.icmp -> Types.t -> Instr.value -> Instr.value -> Instr.value

val fcmp : t -> Instr.fcmp -> Instr.value -> Instr.value -> Instr.value

val select : t -> Types.t -> Instr.value -> Instr.value -> Instr.value -> Instr.value

val cast : t -> Instr.cast -> from_ty:Types.t -> to_ty:Types.t -> Instr.value -> Instr.value

val load : t -> Types.t -> Instr.value -> Instr.value

val store : t -> Types.t -> addr:Instr.value -> Instr.value -> unit

val gep : t -> base:Instr.value -> index:Instr.value -> scale:int -> offset:int -> Instr.value

val call : t -> Types.t -> string -> (Instr.value * Types.t) list -> Instr.value

val call_void : t -> string -> (Instr.value * Types.t) list -> unit

val phi : t -> Types.t -> (int * Instr.value) list -> Instr.value
(** Append a φ to the current block. Incoming edges may be completed
    later with [add_phi_incoming] (loop back edges). *)

val add_phi_incoming : t -> block:int -> dst:Instr.value -> pred:int -> Instr.value -> unit

(** {1 Terminators} *)

val br : t -> int -> unit

val condbr : t -> Instr.value -> if_true:int -> if_false:int -> unit

val ret : t -> Instr.value -> unit

val ret_void : t -> unit

val terminated : t -> bool
(** Whether the current block already has a terminator. *)

val finish : t -> Func.t
(** Seal the function. Fails if a reachable block lacks a
    terminator. *)
