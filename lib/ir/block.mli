(** Basic blocks: φ nodes, a straight-line instruction sequence, one
    terminator. Block ids are indices into the owning function's block
    array; the entry block has id 0. *)

type t = {
  id : int;
  mutable phis : Instr.phi array;
  mutable instrs : Instr.t array;
  mutable term : Instr.terminator;
}

val successors : t -> int list
(** Targets of the terminator, in branch order. *)

val make :
  id:int -> phis:Instr.phi list -> instrs:Instr.t list -> term:Instr.terminator -> t
