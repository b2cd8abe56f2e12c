(** Data-centric code generation: one IR worker function per pipeline
    (paper Fig. 4).

    Each worker has the signature
    [worker(state : ptr, begin : i64, end : i64, tid : i64)]:
    it processes the morsel [\[begin, end)] of its pipeline's source,
    reading column base pointers from the query-state area, evaluating
    filters, walking join hash tables match by match, and feeding the
    sink (hash-table build, aggregate update, or output row). All
    arithmetic is overflow-checked, as in HyPer.

    The generated functions are pure IR: they can be translated to
    bytecode, compiled unoptimized or optimized, and switched between
    those modes at any morsel boundary. Generation is deterministic
    and keeps no global state: generating a pipeline again yields an
    identical function, so a prepared statement keeps only bytecode
    and rebuilds a worker's IR when the optimizing tier asks for it. *)

val pipeline_worker :
  Aeq_plan.Physical.t -> Aeq_plan.Physical.layout -> pipeline:int -> Func.t
(** Generate the worker for pipeline index [pipeline]. The result is
    layout-normalized and verified. *)

val all_workers : Aeq_plan.Physical.t -> Aeq_plan.Physical.layout -> Func.t list
