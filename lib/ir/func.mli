(** An IR function in SSA form.

    Parameters are the first value ids ([0 .. n_params-1]). Every
    value id has an entry in the type table. Blocks are stored in an
    array; after {!Cfg.reorder_rpo} the array order is reverse
    postorder, which the bytecode translator requires. *)

type t = {
  name : string;
  params : Types.t array;
  mutable blocks : Block.t array;
  mutable value_ty : Types.t array;
  mutable n_values : int;
}

val create : name:string -> params:Types.t list -> t
(** Function with parameters registered as values [0..] and no
    blocks. *)

val fresh_value : t -> Types.t -> int
(** Register a new SSA value id of the given type. *)

val ty_of : t -> int -> Types.t

val block : t -> int -> Block.t

val n_blocks : t -> int

val iter_instrs : t -> (Block.t -> Instr.t -> unit) -> unit

val n_instrs : t -> int
(** Total instruction count (φs and terminators included), the size
    measure used by the compile-time model (paper Fig. 6). *)

val copy : t -> t
(** Deep copy. The optimizing compiler clones the function before
    mutating it so the bytecode variant keeps executing the original
    IR. *)
