(** Process-wide verification switch.

    Off by default. When on, the pass manager runs the SSA verifier
    between passes and the translator runs the bytecode verifier on
    its output. Initialised from the [AEQ_VERIFY] environment
    variable: unset, empty, [0], [false], [off], [no] or a negative
    number mean off; a positive number or any other non-empty value
    means on. *)

val set : bool -> unit

val enabled : unit -> bool
