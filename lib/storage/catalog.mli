(** Database catalog: shared arena, dictionary and table registry. *)

type t

val create : unit -> t

val arena : t -> Aeq_mem.Arena.t

val dict : t -> Aeq_rt.Dict.t

val allocator : t -> Aeq_mem.Arena.allocator
(** The load-time allocator, for building tables. *)

val add_table : t -> Table.t -> unit

val table : t -> string -> Table.t
(** @raise Not_found *)

val tables : t -> Table.t list
