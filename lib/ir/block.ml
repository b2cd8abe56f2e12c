type t = {
  id : int;
  mutable phis : Instr.phi array;
  mutable instrs : Instr.t array;
  mutable term : Instr.terminator;
}

let successors b =
  match b.term with
  | Instr.Br target -> [ target ]
  | Instr.CondBr { if_true; if_false; _ } -> [ if_true; if_false ]
  | Instr.Ret _ | Instr.Abort _ -> []

let make ~id ~phis ~instrs ~term =
  { id; phis = Array.of_list phis; instrs = Array.of_list instrs; term }
