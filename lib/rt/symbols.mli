(** The runtime symbol table: the "exported C++ functions" generated
    code may call (paper Section IV-E). All three execution modes
    dispatch through the same closures, so helper behaviour is
    identical by construction.

    Every helper takes its operands in the caller's register file and
    returns an int ({!Aeq_vm.Rt_fn}'s convention), and hands a key to
    {!Hash_table} or {!Agg} as that register file and the key's
    offset: a call boxes nothing. The helpers, by operand:
    - [ht_insert  (ht, tid, key) -> payload_ptr]
    - [ht_lookup  (ht, key) -> entry_ptr | 0]
    - [ht_next    (ht, entry) -> entry_ptr | 0]
    - [agg_get    (agg, tid, k1, k2) -> acc_row_ptr]
    - [out_row    (out, tid) -> row_ptr]
    - [dict_match (pred, code) -> 0|1]
    - [year_of    (days) -> year] (dates are days since 1970-01-01) *)

val resolver : Context.t -> Aeq_vm.Rt_fn.resolver

val year_of_days : int64 -> int64
(** Exposed for the baseline engines so all engines share date
    semantics. *)
