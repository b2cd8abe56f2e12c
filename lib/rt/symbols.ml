module A = Aeq_mem.Arena
module Rt_fn = Aeq_vm.Rt_fn

(* Civil-date conversion (Howard Hinnant's algorithm), days since
   1970-01-01 -> year. *)
let year_of_day days =
  let z = days + 719468 in
  let era = (if z >= 0 then z else z - 146096) / 146097 in
  let doe = z - (era * 146097) in
  let yoe = (doe - (doe / 1460) + (doe / 36524) - (doe / 146096)) / 365 in
  let y = yoe + (era * 400) in
  let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
  let mp = ((5 * doy) + 2) / 153 in
  let m = if mp < 10 then mp + 3 else mp - 9 in
  if m <= 2 then y + 1 else y

let year_of_days days = Int64.of_int (year_of_day (Int64.to_int days))

(* an operand that is an id, a thread number or a dictionary code *)
let[@inline] int_at regs off = Int64.to_int (Rt_fn.get regs off)

(* Compiled artifacts (and their resolved closures) are cached in the
   plan cache and shared by every concurrent execution of the
   statement, so the closures must not bake in one execution's tables.
   Each call resolves the domain-current context installed by the
   pipeline worker; [ctx] — the context the code was compiled against —
   is only the fallback for single-threaded callers (tools, tests)
   that invoke compiled code without going through the driver.

   Every helper follows [Rt_fn]'s convention: it reads its operands
   from the caller's register file at the offsets it is given (keys
   go to [Hash_table] and [Agg] as that register file and offset) and
   returns an int, so a call boxes nothing. *)
let resolver (ctx : Context.t) : Rt_fn.resolver =
  let cur () = match Context.current () with Some c -> c | None -> ctx in
  fun sym ->
    match sym with
    | "ht_insert" ->
      Some
        (Rt_fn.F3
           (fun regs ht tid key ->
             let c = cur () in
             let tid = int_at regs tid in
             Hash_table.insert c.Context.hts.(int_at regs ht) ~tid
               ~allocator:c.Context.allocators.(tid) regs key))
    | "ht_lookup" ->
      Some (Rt_fn.F2 (fun regs ht key -> Hash_table.lookup (cur ()).Context.hts.(int_at regs ht) regs key))
    | "ht_next" ->
      Some
        (Rt_fn.F2
           (fun regs ht entry ->
             Hash_table.next_match (cur ()).Context.hts.(int_at regs ht) ~entry:(int_at regs entry)))
    | "agg_get" ->
      Some
        (Rt_fn.F4
           (fun regs agg tid k1 k2 ->
             let c = cur () in
             let tid = int_at regs tid in
             Agg.get_group c.Context.aggs.(int_at regs agg) ~tid
               ~allocator:c.Context.allocators.(tid) regs ~k1 ~k2))
    | "out_row" ->
      Some
        (Rt_fn.F2
           (fun regs out tid ->
             let c = cur () in
             let tid = int_at regs tid in
             Output.row c.Context.outs.(int_at regs out) ~tid ~allocator:c.Context.allocators.(tid)))
    | "dict_match" ->
      Some
        (Rt_fn.F2
           (fun regs pred code ->
             if Bitmap.get (cur ()).Context.preds.(int_at regs pred) (int_at regs code) then 1 else 0))
    | "year_of" -> Some (Rt_fn.F1 (fun regs days -> year_of_day (int_at regs days)))
    | _ -> None
