(** Grouped aggregation tables.

    Each worker thread owns a private group table ("thread-local
    aggregation"), so generated code updates accumulators with plain
    loads and stores — no atomics in the per-tuple path. After the
    pipeline barrier the driver merges the thread tables and
    materialises the groups into arena columns, which the next
    pipeline scans like a table.

    Everything lives in the execution's arena lease: each thread's
    table is a chained hash table whose entries
    ([next][k1][k2][accumulators...], the [k2] word only for two keys)
    and bucket directory come from that thread's allocator, so a group
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
  t -> tid:int -> allocator:Aeq_mem.Arena.allocator -> k1:int64 -> k2:int64 -> Aeq_mem.Arena.ptr
(** Accumulator row for the group, created (with per-kind initial
    values) on first touch. Accumulator [i] is at byte offset [8*i].
    [allocator] is thread [tid]'s; the table grows from it. [k2] is
    ignored unless [key_arity] is 2. Finding an existing group
    allocates nothing beyond the boxed arguments. *)

val merge : t -> unit
(** Fold every thread's groups into thread 0 (per-kind combination).
    Call after the pipeline barrier, single-threaded. *)

val materialize : t -> allocator:Aeq_mem.Arena.allocator -> int * Aeq_mem.Arena.ptr array
(** After [merge]: [(n_groups, columns)] where columns are
    [key1; key2; acc0; acc1; ...] (keys only up to [key_arity]),
    each a dense arena column of [n_groups] i64 values. *)

val n_groups : t -> int
(** Total groups in thread 0 (valid after [merge]). *)
