(** Optimization pipeline driver, mirroring the paper's two compiler
    configurations: unoptimized compilation runs no IR passes at all
    (LLVM fast-isel style) and so never calls {!optimize}; optimized
    compilation runs the hand-picked pass list HyPer uses — "peephole
    optimizations, reassociate expressions, common subexpression
    elimination, control flow graph simplification, aggressive dead
    code elimination" — here: constant folding + identities,
    dominator-scoped CSE, CFG simplification and DCE, iterated to a
    fixpoint. The super-linear compile latency of Fig. 15 is
    [Aeq_backend.Cost_model]'s, not a property of this list. *)

val optimize : ?check:bool -> Func.t -> unit
(** Run the pipeline in place. The function leaves in {!Layout.normalize}
    form: each round re-lays-out right after CFG simplification, the
    only pass that changes the CFG. Well-formedness is verified after
    every pass when [check] is true (default false) or
    [Aeq_util.Verify_mode] is on; a failure raises [Invalid_argument]
    with the offending pass's name and the full diagnostic report.

    @raise Invalid_argument ["pass <name> broke <func>: <report>"] *)

val run_pass : name:string -> (Func.t -> bool) -> Func.t -> bool
(** [run_pass ~name pass f] runs an arbitrary pass under the same
    verification regime as {!optimize}: when [Aeq_util.Verify_mode] is
    on, the deep SSA verifier runs afterwards and a violation is
    attributed to [name]. Returns the pass's changed flag. *)
