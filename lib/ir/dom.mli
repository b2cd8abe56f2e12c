(** Dominator tree with pre/post-order labeling.

    Computed with the Cooper–Harvey–Kennedy iterative algorithm over
    the reverse-postorder numbering (the practical variant of the
    near-linear algorithms the paper cites). Nodes of the tree are
    labeled with pre/post-order numbers so that ancestor queries — the
    loop-head test of Fig. 11 — are O(1), exactly as the paper's
    Fig. 12 illustrates.

    Requires the function to be RPO-ordered ({!Cfg.reorder_rpo}). *)

type t

val compute : Func.t -> t

val idom : t -> int -> int
(** Immediate dominator of a block; the entry is its own idom. *)

val is_ancestor : t -> ancestor:int -> int -> bool
(** [is_ancestor t ~ancestor b]: does [ancestor] dominate [b]
    (reflexively)? O(1) via interval containment. *)

val children : t -> int -> int list
(** Dominator-tree children. *)
