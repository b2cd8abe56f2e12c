(** Bytecode verification.

    Three layers, from cheapest to deepest:

    - {!check_program}: structural checks over the whole program
      (the three instruction arrays of one length, every opcode valid,
      jump targets in bounds — instruction boundaries are free in this
      encoding, whose instructions are fixed-length slots —, register
      offsets aligned and inside the register file, no write to a
      constant-pool slot, abort-message and runtime-call indices
      valid, call arity matching the function table, no fall-through
      past the end), then a forward abstract interpretation of per-pc
      register type-states: a read no write reaches on some path is
      reported (the register file is reused across morsels, so such a
      read sees the previous morsel's stale data), as is an integer
      opcode consuming a definite float or vice versa.

    - {!check_allocation}: the liveness cross-check of the paper's
      Figs. 9–12 allocator. Recomputes {e precise} SSA liveness on the
      {!Aeq_ir.Dataflow} framework (same φ-as-parallel-copies model as
      [Regalloc]) and reports any definition that writes a slot while
      a different value sharing it is still live (or is read/defined
      at the same position) — i.e. any case the conservative
      per-value [first_block, last_block] interval should have kept
      apart.

    - {!check_translation}: both of the above against a function and
      its translated program, recomputing the allocation
      deterministically.

    [Translate.translate] runs these automatically when
    [Aeq_util.Verify_mode] is enabled. *)

type diagnostic = { pc : int option; message : string }

exception Rejected of string

val diagnostic_to_string : string -> diagnostic -> string
(** [diagnostic_to_string name d] renders [d] for program [name]. *)

val report : string -> diagnostic list -> string

val check_program : Bytecode.t -> diagnostic list
(** Structural checks and the abstract interpretation. The abstract
    interpretation only runs when the structural checks pass (its
    transfer functions index by the fields the structural pass
    validates). *)

val check_allocation : Func.t -> slot_offset:int array -> diagnostic list
(** [slot_offset] maps value id to register-file byte offset ([-1] =
    no slot), as produced by [Regalloc.allocate]. *)

val check_translation :
  ?strategy:Regalloc.strategy -> Func.t -> Bytecode.t -> diagnostic list
(** [check_translation f p] = [check_program p] plus
    [check_allocation] with the allocation recomputed from [f] (the
    allocator is deterministic, so this is the allocation [p] was
    built with — pass [strategy] if the translation used one other
    than [Loop_aware]). *)

val verify : ?name:string -> Bytecode.t -> unit
(** @raise Rejected with the full report if {!check_program} finds
    anything. *)
