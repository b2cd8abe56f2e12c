(** Pipeline progress tracking (paper Section III-A).

    Records the total work when a pipeline starts and, after every
    morsel, the per-thread local tuple processing rate. The adaptive
    controller extrapolates the remaining pipeline duration from the
    average rate and the remaining-tuple count. *)

type t

val create : total_rows:int -> n_threads:int -> t

val epoch : t -> int
(** Tier switches so far. A morsel reads it before it starts. *)

val note_morsel : t -> tid:int -> epoch:int -> rows:int -> ns:int -> unit
(** A morsel of [rows] rows took [ns] nanoseconds on [tid]. Its rate
    is a sample only if no switch happened since it read [epoch]. *)

val processed : t -> int

val remaining : t -> int

val avg_rate : t -> int
(** Mean of the per-thread rates since the last switch (tuples per
    second); 0 if there is none yet. *)

val switch : t -> unit
(** A tier switch: the extrapolation starts over on post-switch rates
    only (paper Section III-C). *)
