(** IR → bytecode translation (paper Fig. 9).

    Computes liveness, allocates registers, interns constants into the
    register-file prefix (slots 0 and 1 always hold 0 and 1), then
    walks the blocks in reverse postorder emitting opcodes. φ values
    are propagated by copies at the end of each predecessor block —
    safe without parallel-copy resolution because the allocator makes
    all φ sources and destinations of an edge mutually disjoint.

    Macro-op fusion (Section IV-F) recognises and collapses:
    - overflow-checked arithmetic: [op] + [op.ovf] + branch-to-abort
      becomes one trapping [*Chk] opcode;
    - [gep] immediately feeding a load/store becomes [LoadIdx]/
      [StoreIdx];
    - a comparison immediately feeding the block's conditional branch
      becomes a fused compare-and-jump;
    - a [load i8], [load i16] or [load i32] immediately feeding a
      [sext] to i64 (a 1-, 2- or 4-byte table cell) becomes one
      sign-extending load: folded before register allocation, so the
      pair needs one register, and with its [gep] it is one
      [LoadIdx8], [LoadIdx16] or [LoadIdx32].

    Fusion requires the intermediate value to have exactly one use.

    @raise Unsupported for constructs the VM has no opcode for
    (checked arithmetic on widths other than 32/64, calls whose arity
    exceeds the call opcodes, unresolved symbols), and for a field the
    packed encoding cannot hold: a register offset or branch target
    wider than its field, or a GEP scale or offset wider than its
    literal ({!Bytecode}). *)

exception Unsupported of string
(** The same exception as [Bytecode.Unsupported]. *)

val translate :
  ?strategy:Regalloc.strategy ->
  ?fuse:bool ->
  symbols:Rt_fn.resolver ->
  Func.t ->
  Bytecode.t
(** Requires the function to be RPO-ordered ({!Cfg.reorder_rpo}) and
    well-formed ({!Verify.run}). [fuse] defaults to [true]; disabling
    it is used by the fusion ablation benchmark. *)
