(** Size metrics and dataflow analyses over IR functions.

    [instruction_count] is the measure the paper correlates with
    compilation time (Fig. 6) and that the adaptive controller feeds
    into the compile-cost model.

    {!liveness} is precise per-block SSA liveness computed on the
    {!Dataflow} framework, in the φ-as-parallel-copies model shared by
    the register allocator and the bytecode translator (the paper's
    Figs. 9–12 compute a single conservative interval per value; this
    is the exact solution the verifier checks those intervals
    against). *)

val instruction_count : Func.t -> int
(** φ nodes and terminators included. *)

val block_count : Func.t -> int

type liveness = {
  live_in : Dataflow.Bitset.t array;
  live_out : Dataflow.Bitset.t array;
}
(** Indexed by block id, over value-id universes. [live_in.(b)] holds
    the values live at the block head (φ destinations written by the
    predecessors included when used); [live_out.(b)] those live after
    the terminator, before the successor's own code runs. *)

val liveness : Func.t -> liveness

val term_uses : Block.t -> use:(Instr.value -> unit) -> unit
(** The values the terminator itself reads (branch condition / return
    operand). *)

val edge_copies :
  Func.t -> Block.t -> def:(int -> unit) -> use:(Instr.value -> unit) -> unit
(** Enumerate the φ parallel copies executed at the end of the given
    block, one [def] per successor-φ destination and one [use] per
    incoming value contributed by this block — the copy-model
    semantics of φs that {!liveness} and [Bc_verify] share. *)
