(** Chaining hash-join table over arena memory, built in two phases.

    Entries ([next][key][payload...]) and the bucket directory (one i64
    head per bucket) live in the execution's arena lease, so generated
    code in any execution mode reads them with plain loads and the
    whole table is reclaimed with the lease.

    During the build pipeline each worker appends its entries to its
    own chain: an insert takes no lock. At the barrier after that
    pipeline, {!link} sizes a directory to the entries the table holds
    and links every entry into it; probes run only in later pipelines
    and are lock-free. *)

type t

val create : Aeq_mem.Arena.t -> n_threads:int -> payload_bytes:int -> t
(** An empty table with one chain per worker thread and no directory
    yet. Takes no arena memory. *)

val key_offset : int
(** Byte offset of the key within an entry (8). Generated code reads a
    build-key column there, not from the payload. *)

val payload_offset : int
(** Byte offset of the payload within an entry (16). *)

val insert :
  t -> tid:int -> allocator:Aeq_mem.Arena.allocator -> Bytes.t -> int -> Aeq_mem.Arena.ptr
(** [insert t ~tid ~allocator keys off] appends an entry for the key
    held in the 8 bytes of [keys] at [off] to thread [tid]'s chain and
    returns a pointer to its payload region (zeroed). Generated code
    passes its register file and the key's register, so the key is
    never boxed. The caller fills the
    payload with stores. Only the domain running [tid] may insert with
    it; nothing reads the entry until {!link}. *)

val link : t -> allocator:Aeq_mem.Arena.allocator -> unit
(** End the build: allocate a directory of [next_pow2 (max 16 (size
    t))] buckets from [allocator] and link every entry into it, each
    thread's entries in turn. Call once, single-threaded, after the
    barrier that ends the build pipeline.
    @raise Invalid_argument if the table is already linked. *)

val linked : t -> bool
(** Whether {!link} has run: the table may be probed. *)

val lookup : t -> Bytes.t -> int -> Aeq_mem.Arena.ptr
(** [lookup t keys off]: the first entry whose key equals the 8 bytes
    of [keys] at [off], or [Arena.null]. The result points at the
    entry; payload at [+ payload_offset]. Entries with the same key
    come newest first within a thread's. Allocates nothing.
    @raise Invalid_argument before {!link}. *)

val next_match : t -> entry:Aeq_mem.Arena.ptr -> Aeq_mem.Arena.ptr
(** Next entry in the same bucket with the same key, or null. *)

val size : t -> int
(** Number of entries inserted. *)

val n_buckets : t -> int
(** Buckets in the directory; 0 before {!link}. *)
