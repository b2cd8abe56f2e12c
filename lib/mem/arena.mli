(** Chunked byte arena backing all query-visible memory.

    The paper's generated machine code operates on raw x86 memory. We
    reproduce that model with a process of chunks of bytes: IR-level
    pointers are 63-bit integers encoding [(chunk_index << 32) | byte_
    offset]. Columns, hash-table entries, aggregation slots and output
    rows all live here, so the bytecode interpreter and the compiled
    backend observe bit-identical state — the invariant that makes
    mid-pipeline mode switching sound.

    Chunks never move once allocated, which makes pointers stable under
    concurrent allocation (worker threads allocate hash-table entries
    while others read columns). Every single allocation is contiguous
    inside one chunk, so generated pointer arithmetic (GEP) never
    crosses a chunk boundary.

    Ownership is two-level. The arena's {e base lease} (what
    {!allocator} draws from) holds long-lived data: loaded tables, the
    dictionary. Each query execution takes its own scratch {!lease}
    and bump-allocates hash tables, aggregation slots and output rows
    into chunks owned by that lease; {!release} returns the chunk
    slots to a free pool when the query completes, and keeps the
    chunks themselves as spares that the next lease reuses (zeroed) at
    the same size instead of allocating. Queries therefore never
    contend on reclamation and can run concurrently over the shared
    base chunks — the old [mark_chunks]/[truncate] scheme,
    which assumed one writer at a time, is gone. *)

type t

type ptr = int
(** Encoded pointer; [0] is the null pointer. Slot 0 of the chunk
    table never holds memory, so no allocation is null and a null
    dereference raises like any wild pointer. *)

type lease
(** A claim on a set of scratch chunks. Allocations through a lease's
    allocators are metered per-lease (the per-query memory budget) and
    the chunks are reclaimed together by {!release}. *)

type allocator

exception Stale_allocator
(** Raised by {!alloc} when the allocator's lease has been released or
    the arena [reset] — bump-allocating into a reclaimed chunk would
    corrupt whichever query owns that slot now. *)

val null : ptr

val create : ?chunk_size:int -> unit -> t
(** Fresh arena. [chunk_size] (default 64 KiB) is the granularity at
    which allocators take memory; larger allocations get dedicated
    chunks of exactly their size.

    Every allocator takes and zero-fills a whole chunk on its first
    allocation, so the default is sized to what a short query touches:
    a catalog query's scratch is a few KiB, for which a 1 MiB chunk
    zero-fills and pools 1 MiB per allocator. In a sweep from 16 KiB
    to 1 MiB over the four benchmark workloads, 64 KiB read the lowest
    peak RSS on [tpch_warm] and was within 0.3 MB of the lowest on the
    other three; 16 and 32 KiB read 1.4–1.8 MB more on [tpch_warm]
    (EXPERIMENTS.md).
    The chunk table has 65,536 slots, so at the default chunk size the
    arena holds at most 4 GiB in chunk-sized pieces; a large column
    or hash table takes one dedicated slot whatever its size. *)

val allocator : t -> allocator
(** A new bump allocator on the arena's permanent base lease — for
    long-lived data (catalog columns, dictionary). Not thread-safe;
    create one per worker. *)

val lease : t -> lease
(** Take a fresh scratch lease. Thread-safe. *)

val lease_allocator : lease -> allocator
(** A new bump allocator drawing chunks from [lease]. Not thread-safe;
    create one per worker. *)

val release : lease -> unit
(** Return the lease's chunk slots to the arena's free pool and its
    scratch chunks to the spare pool (see {!spare_bytes}); chunks the
    pool's bounds do not admit are dropped. Idempotent, thread-safe.
    Every allocator of the lease becomes stale. The caller must ensure
    no worker still reads or writes the lease's chunks (the driver
    releases only after all pipeline workers have finished). *)

val lease_used : lease -> int
(** Bytes handed out through this lease's allocators — the per-query
    memory budget meter. Thread-safe. *)

val lease_stale : lease -> bool

val alloc : allocator -> ?align:int -> int -> ptr
(** [alloc a n] reserves [n] zeroed bytes aligned to [align]
    (default 8). @raise Stale_allocator on a released lease. *)

val resident_bytes : t -> int
(** Bytes currently held in live chunks. This falls back when
    [release] reclaims query scratch (gauge
    [aeq_arena_resident_bytes]).
    Maintained as an atomic running total: one load, no lock, no chunk
    scan. Spare chunks are not counted. *)

val spare_bytes : t -> int
(** Bytes held in the spare pool: released scratch chunks kept, by
    exact size, for the next grab of that size, which zero-fills one
    before any lease sees it. Not leased, so excluded from
    {!resident_bytes}, {!scratch_resident_bytes} and {!live_chunks}.
    The pool never holds more than the highest scratch residency seen
    since creation or {!reset}. One atomic load. *)

val live_chunks : t -> int
(** Number of slots currently holding memory. Equal before/after a
    query whose lease was released — the leak check used by tests. *)

val live_leases : t -> int
(** Outstanding scratch leases (taken, not yet released). *)

val reset : t -> unit
(** Drop all chunks, empty the spare pool and
    invalidate every outstanding
    lease and allocator (base included). Only call between queries.
    @raise Invalid_argument if scratch leases are still live — a
    reset under a running query would recycle its slots into a data
    race. Release (or fail) every query first. *)

val scratch_resident_bytes : t -> int
(** Bytes currently resident in scratch chunks: the sum held by query
    leases, excluding loaded tables. One atomic load. *)

val check : t -> string list
(** Recount the chunk table and cross-check every counter the
    lock-free paths maintain ([n_live], [resident], [scratch],
    free-slot validity, the spare-pool byte count and the pool's
    bound), and report any chunk that is both leased and
    pooled, or pooled twice. Empty = coherent. The
    deterministic simulator runs this at yield points; tests run it
    after fault injection. Takes the arena lock. *)

(** {1 Typed access}

    Native endianness. An access past its chunk's end, into an empty
    slot, or through a pointer whose chunk index is outside the table
    (a negative pointer included) raises [Invalid_argument]; otherwise
    generated code is trusted like machine code. *)

val get_i8 : t -> ptr -> int

val set_i8 : t -> ptr -> int -> unit

val get_i16 : t -> ptr -> int

val set_i16 : t -> ptr -> int -> unit

val get_i32 : t -> ptr -> int
(** The 32-bit word at [p], sign-extended: an [int] crosses modules
    unboxed where an [int32] would be boxed on every load. *)

val set_i32 : t -> ptr -> int32 -> unit

val get_i64 : t -> ptr -> int64

val set_i64 : t -> ptr -> int64 -> unit

type chunk = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A chunk's memory: a bigstring, outside the OCaml heap, so loaded
    tables and pooled scratch do not count towards the heap size that
    paces the major GC. *)

val chunk_of : t -> ptr -> chunk * int
(** [chunk_of t p] is the chunk holding [p] and the byte offset of
    [p] within it. Lets bulk loaders cache the chunk of a column. *)

(** Bounds-checked native-endian 16-, 32- and 64-bit integers at a
    byte offset of a chunk. Primitives: a call from another module is
    inlined, the integer unboxed. The 16-bit pair is unsigned, like
    {!get_i16}: the getter returns [0..0xffff], the setter stores the
    low 16 bits. *)
external chunk_get_u16 : chunk -> int -> int = "%caml_bigstring_get16"
external chunk_set_u16 : chunk -> int -> int -> unit = "%caml_bigstring_set16"
external chunk_get_i32 : chunk -> int -> int32 = "%caml_bigstring_get32"
external chunk_set_i32 : chunk -> int -> int32 -> unit = "%caml_bigstring_set32"
external chunk_get_i64 : chunk -> int -> int64 = "%caml_bigstring_get64"
external chunk_set_i64 : chunk -> int -> int64 -> unit = "%caml_bigstring_set64"
