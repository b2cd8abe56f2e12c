module A = Aeq_mem.Arena

(* Civil-date conversion (Howard Hinnant's algorithm), days since
   1970-01-01 -> year. *)
let year_of_days days =
  let z = Int64.to_int days + 719468 in
  let era = (if z >= 0 then z else z - 146096) / 146097 in
  let doe = z - (era * 146097) in
  let yoe = (doe - (doe / 1460) + (doe / 36524) - (doe / 146096)) / 365 in
  let y = yoe + (era * 400) in
  let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
  let mp = ((5 * doy) + 2) / 153 in
  let m = if mp < 10 then mp + 3 else mp - 9 in
  Int64.of_int (if m <= 2 then y + 1 else y)

(* Compiled artifacts (and their resolved closures) are cached in the
   plan cache and shared by every concurrent execution of the
   statement, so the closures must not bake in one execution's tables.
   Each call resolves the domain-current context installed by the
   pipeline worker; [ctx] — the context the code was compiled against —
   is only the fallback for single-threaded callers (tools, tests)
   that invoke compiled code without going through the driver. *)
let resolver (ctx : Context.t) : Aeq_vm.Rt_fn.resolver =
  let cur () = match Context.current () with Some c -> c | None -> ctx in
  fun sym ->
    match sym with
    | "ht_insert" ->
      Some
        (Aeq_vm.Rt_fn.F3
           (fun ht tid key ->
             let c = cur () in
             let t = c.Context.hts.(Int64.to_int ht) in
             let tid = Int64.to_int tid in
             let allocator = c.Context.allocators.(tid) in
             Int64.of_int (Hash_table.insert t ~tid ~allocator ~key)))
    | "ht_lookup" ->
      Some
        (Aeq_vm.Rt_fn.F2
           (fun ht key ->
             let t = (cur ()).Context.hts.(Int64.to_int ht) in
             Int64.of_int (Hash_table.lookup t ~key)))
    | "ht_next" ->
      Some
        (Aeq_vm.Rt_fn.F2
           (fun ht entry ->
             let t = (cur ()).Context.hts.(Int64.to_int ht) in
             Int64.of_int (Hash_table.next_match t ~entry:(Int64.to_int entry))))
    | "agg_get" ->
      Some
        (Aeq_vm.Rt_fn.F4
           (fun agg tid k1 k2 ->
             let c = cur () in
             let t = c.Context.aggs.(Int64.to_int agg) in
             let tid = Int64.to_int tid in
             let allocator = c.Context.allocators.(tid) in
             Int64.of_int (Agg.get_group t ~tid ~allocator ~k1 ~k2)))
    | "out_row" ->
      Some
        (Aeq_vm.Rt_fn.F2
           (fun out tid ->
             let c = cur () in
             let t = c.Context.outs.(Int64.to_int out) in
             let tid = Int64.to_int tid in
             let allocator = c.Context.allocators.(tid) in
             Int64.of_int (Output.row t ~tid ~allocator)))
    | "dict_match" ->
      Some
        (Aeq_vm.Rt_fn.F2
           (fun pred code ->
             let bm = (cur ()).Context.preds.(Int64.to_int pred) in
             if Bitmap.get bm (Int64.to_int code) then 1L else 0L))
    | "year_of" -> Some (Aeq_vm.Rt_fn.F1 year_of_days)
    | _ -> None
