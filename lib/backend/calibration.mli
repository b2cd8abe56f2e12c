(** The closure tiers' speed-ups over the bytecode interpreter, which
    the adaptive controller prices with. The paper determines them
    "empirically in our system" (Section III-C): here each engine
    learns them from its own pipelines, starting at its cost model's
    seeds. Nothing runs at start-up. *)

type t = { speedup_unopt : float; speedup_opt : float }

type estimate
(** One engine's speed-ups; thread-safe. *)

val estimate : Cost_model.t -> estimate
(** A fresh estimate at the model's seeds. *)

val current : estimate -> t
(** Allocates nothing. *)

val observe : estimate -> from:Cost_model.mode -> to_:Cost_model.mode -> ratio:float -> unit
(** A pipeline's first rate after switching [from] → [to_] was
    [ratio] times its rate before. As a speed-up over bytecode,
    floored at 1.01 (unopt) or 1.02 (opt), it moves the estimate a
    quarter of the way to it. *)

val measure : unit -> t
(** Reporting only: the estimate most recently updated by any engine
    in the process, or the seeds of {!Cost_model.default} before any
    update. Decisions read their own engine's {!estimate}, so they do
    not depend on what ran earlier in the process. *)
