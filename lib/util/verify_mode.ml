(* Process-wide verification switch, shared by every layer that can
   self-check (SSA verifier between passes, bytecode verifier after
   translation). Lives here rather than in the pass manager because
   aeq_vm cannot see aeq_passes: both read the switch through
   aeq_util.

   Off by default (production); on runs the deep verifiers.
   Initialised from AEQ_VERIFY. *)

let parse = function
  | None -> false
  | Some ("" | "0" | "false" | "off" | "no") -> false
  | Some s -> ( match int_of_string_opt s with Some n -> n > 0 | None -> true)

let on = Atomic.make (parse (Sys.getenv_opt "AEQ_VERIFY"))

let set = Atomic.set on

let enabled () = Atomic.get on
