(** Grouped aggregation tables, aggregated in two phases.

    Each worker thread owns a private group table ("thread-local
    aggregation"), so generated code updates accumulators with plain
    loads and stores — no atomics in the per-tuple path. A thread's
    table is bounded: its chained directory doubles from 64 buckets up
    to one arena chunk ({!Aeq_mem.Arena.default_chunk_size}, 8,192
    buckets) and each bucket's chain holds at most 4 entries. A new
    group whose chain is full first moves that chain onto the thread's
    overflow list, so one group can end up with several entries per
    thread.

    After the pipeline barrier, {!merge} deals every entry into hash
    partitions and combines duplicates one partition at a time in a
    directory sized to the largest partition (one per merging
    participant), and {!materialize} writes the distinct groups into
    arena columns, which the next pipeline scans like a table.

    Everything lives in the execution's arena lease: entries
    ([next][k1][k2][accumulators...], the [k2] word only for two keys)
    and directories come from the threads' allocators, so a group
    costs no OCaml heap and the whole table is reclaimed with the
    lease. *)

type acc_kind = Sum | Count | Min | Max
(** AVG is compiled as Sum + Count with a final division in the
    aggregate-scan pipeline. *)

type t

val create :
  Aeq_mem.Arena.t -> n_threads:int -> key_arity:int -> accs:acc_kind list -> t
(** [key_arity] is 0, 1 or 2 (0 = global aggregate: a single group). *)

val get_group :
  t ->
  tid:int ->
  allocator:Aeq_mem.Arena.allocator ->
  Bytes.t ->
  k1:int ->
  k2:int ->
  Aeq_mem.Arena.ptr
(** [get_group t ~tid ~allocator keys ~k1 ~k2]: the accumulator row
    for the group whose keys are the 8 bytes of [keys] at offsets [k1]
    and [k2], created (with per-kind initial values) on first touch.
    Generated code passes its register file and the keys' registers,
    so no key is boxed. Accumulator [i] is at byte offset [8*i].
    [allocator] is thread [tid]'s; the table grows from it. [k2] is
    not read unless [key_arity] is 2. Finding a group that is in the
    thread's directory allocates nothing; the row of a group whose
    entry overflowed is a new entry. *)

val merge : ?run:((tid:int -> unit) -> unit) -> t -> unit
(** Combine every thread's entries into distinct groups (per-kind
    combination). Call once, after the pipeline barrier, from one
    thread. With [run], the work is spread over its participants when
    the entries make more than one partition: [run f] must call [f]
    on one or more participants with distinct tids below [n_threads]
    and return when every call has returned, as [Pool.run] does.
    Without it, everything runs in the caller. *)

val materialize : t -> allocator:Aeq_mem.Arena.allocator -> int * Aeq_mem.Arena.ptr array
(** After [merge]: [(n_groups, columns)] where columns are
    [key1; key2; acc0; acc1; ...] (keys only up to [key_arity]),
    each a dense arena column of [n_groups] i64 values, in partition
    order. *)

val n_groups : t -> int
(** Distinct groups (valid after [merge]). *)
