(** Control-flow-graph utilities.

    The translator and the liveness algorithm (paper Fig. 11) require
    blocks numbered in reverse postorder; [reorder_rpo] establishes
    that invariant in place, pruning unreachable blocks. *)

val predecessors : Func.t -> int list array
(** [predecessors f].(b) are the ids of blocks branching to [b]. *)

val reorder_rpo : Func.t -> unit
(** Renumber blocks so that array order = reverse postorder (entry is
    block 0), rewriting branch targets and φ incoming edges, and
    dropping unreachable blocks (φ edges from dropped blocks are
    removed). After this, [b.id = index] holds again.

    Note: a plain RPO does not guarantee that loop bodies occupy
    contiguous label ranges, which the interval-based liveness of the
    bytecode translator depends on; run {!Layout.normalize} (which
    includes this pass) before translating. *)

val apply_order : Func.t -> int array -> unit
(** [apply_order f order] renumbers blocks so that [order.(i)] becomes
    block [i], rewriting targets and φ edges; blocks absent from
    [order] are dropped. [order.(0)] must be the entry block. *)
