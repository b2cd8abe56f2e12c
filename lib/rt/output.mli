(** Per-thread output row buffers.

    A pipeline that produces query results reserves one fixed-width
    row per result tuple ([row] helper) and fills it with stores. Rows
    live in the arena, each thread's chained in insertion order
    through an 8-byte header in front of the row, so reserving one
    takes no OCaml memory. After the pipeline completes the driver
    sorts and limits row pointers and decodes only the rows it
    returns. *)

type t

val create : Aeq_mem.Arena.t -> n_threads:int -> row_bytes:int -> t

val row : t -> tid:int -> allocator:Aeq_mem.Arena.allocator -> Aeq_mem.Arena.ptr
(** Reserve one zeroed row from [allocator] (thread [tid]'s). Allocates
    no OCaml memory. *)

val rows : t -> Aeq_mem.Arena.ptr array
(** Every reserved row: thread 0's in insertion order, then thread
    1's, and so on. *)

val count : t -> int
