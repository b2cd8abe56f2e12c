(** Chaining hash-join table over arena memory.

    Entries ([next][key][payload...]) and the bucket directory (one i64
    head per bucket) live in the execution's arena lease, so generated
    code in any execution mode reads them with plain loads and the
    whole table is reclaimed with the lease; only the stripe locks live
    on the OCaml side. Inserts during the build pipeline are
    thread-safe (striped locks); probes happen after the pipeline
    barrier and are lock-free. *)

type t

val create :
  Aeq_mem.Arena.t ->
  allocator:Aeq_mem.Arena.allocator ->
  expected_entries:int ->
  payload_bytes:int ->
  t
(** The bucket directory is allocated from [allocator]. *)

val payload_offset : int
(** Byte offset of the payload within an entry (16). *)

val hash : int64 -> int
(** The table's key hash (a splitmix64 finalizer), non-negative. *)

val insert : t -> allocator:Aeq_mem.Arena.allocator -> key:int64 -> Aeq_mem.Arena.ptr
(** Reserve an entry for [key] and return a pointer to its payload
    region (zeroed). The caller fills the payload with stores; nothing
    reads it until the build pipeline completes. *)

val lookup : t -> key:int64 -> Aeq_mem.Arena.ptr
(** First entry whose key equals [key], or [Arena.null]. The result
    points at the entry; payload at [+ payload_offset]. *)

val next_match : t -> entry:Aeq_mem.Arena.ptr -> Aeq_mem.Arena.ptr
(** Next entry in the same bucket with the same key, or null. *)

val size : t -> int
(** Number of entries inserted. *)
