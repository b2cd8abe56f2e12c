(* Unit and property tests for the chunked arena. *)

module A = Aeq_mem.Arena

let test_roundtrip () =
  let arena = A.create () in
  let alloc = A.allocator arena in
  let p = A.alloc alloc 64 in
  A.set_i64 arena p 0x1122334455667788L;
  Alcotest.(check int64) "i64" 0x1122334455667788L (A.get_i64 arena p);
  A.set_i32 arena (p + 8) 0xDEADBEEFl;
  Alcotest.(check int) "i32 sign-extended" (-0x21524111) (A.get_i32 arena (p + 8));
  A.set_i16 arena (p + 12) 0xCAFE;
  Alcotest.(check int) "i16" 0xCAFE (A.get_i16 arena (p + 12));
  A.set_i8 arena (p + 14) 0xAB;
  Alcotest.(check int) "i8" 0xAB (A.get_i8 arena (p + 14))

let test_zeroed_and_aligned () =
  let arena = A.create () in
  let alloc = A.allocator arena in
  for i = 1 to 100 do
    let p = A.alloc alloc ~align:8 (i * 3) in
    Alcotest.(check bool) "aligned" true ((p land 7) = 0);
    Alcotest.(check int64) "zeroed" 0L (A.get_i64 arena p)
  done

let test_null_never_allocated () =
  let arena = A.create () in
  let alloc = A.allocator arena in
  for _ = 1 to 1000 do
    let p = A.alloc alloc 16 in
    Alcotest.(check bool) "non-null" true (p <> A.null)
  done

let test_large_allocation_dedicated_chunk () =
  let arena = A.create ~chunk_size:1024 () in
  let alloc = A.allocator arena in
  let big = A.alloc alloc (10 * 1024) in
  (* Write across the whole allocation; must stay within one chunk. *)
  for i = 0 to (10 * 1024 / 8) - 1 do
    A.set_i64 arena (big + (8 * i)) (Int64.of_int i)
  done;
  for i = 0 to (10 * 1024 / 8) - 1 do
    Alcotest.(check int64) "big roundtrip" (Int64.of_int i) (A.get_i64 arena (big + (8 * i)))
  done

let test_pointers_stable_across_growth () =
  let arena = A.create ~chunk_size:256 () in
  let alloc = A.allocator arena in
  let first = A.alloc alloc 64 in
  A.set_i64 arena first 99L;
  (* Force many new chunks. *)
  for _ = 1 to 100 do
    ignore (A.alloc alloc 200)
  done;
  Alcotest.(check int64) "old pointer still valid" 99L (A.get_i64 arena first)

let test_bounds_checked () =
  (* an 8-byte access that starts 4 bytes before a chunk's end would
     read or write past it *)
  let arena = A.create ~chunk_size:1024 () in
  let p = A.alloc (A.allocator arena) 16 in
  let chunk, off = A.chunk_of arena p in
  let near_end = p - off + Bigarray.Array1.dim chunk - 4 in
  A.set_i32 arena near_end 7l;
  Alcotest.(check int) "last word in bounds" 7 (A.get_i32 arena near_end);
  Alcotest.check_raises "get_i64" (Invalid_argument "index out of bounds") (fun () ->
      ignore (A.get_i64 arena near_end));
  Alcotest.check_raises "set_i64" (Invalid_argument "index out of bounds") (fun () ->
      A.set_i64 arena near_end 1L)

(* pointers whose chunk index is outside the table: a negative one
   (its index reads as huge after the shift) and one just past it *)
let wild_pointers = [ -8; (1 lsl 16) lsl 32 ]

let test_wild_pointer_raises () =
  let arena = A.create () in
  let oob name f = Alcotest.check_raises name (Invalid_argument "index out of bounds") f in
  List.iter
    (fun p ->
      let name op = Printf.sprintf "%s %#x" op p in
      oob (name "get_i8") (fun () -> ignore (A.get_i8 arena p));
      oob (name "set_i8") (fun () -> A.set_i8 arena p 1);
      oob (name "get_i16") (fun () -> ignore (A.get_i16 arena p));
      oob (name "set_i16") (fun () -> A.set_i16 arena p 1);
      oob (name "get_i32") (fun () -> ignore (A.get_i32 arena p));
      oob (name "set_i32") (fun () -> A.set_i32 arena p 1l);
      oob (name "get_i64") (fun () -> ignore (A.get_i64 arena p));
      oob (name "set_i64") (fun () -> A.set_i64 arena p 1L);
      oob (name "chunk_of") (fun () -> ignore (A.chunk_of arena p)))
    wild_pointers

(* Slot 0 holds no memory: a fresh arena holds none, and a null
   dereference raises like a wild pointer, before and after a reset. *)
let test_null_pointer_raises () =
  let arena = A.create () in
  Alcotest.(check int) "fresh arena holds no bytes" 0 (A.resident_bytes arena);
  Alcotest.(check int) "fresh arena holds no chunk" 0 (A.live_chunks arena);
  let oob name f = Alcotest.check_raises name (Invalid_argument "index out of bounds") f in
  let deref_null () =
    oob "get_i8 null" (fun () -> ignore (A.get_i8 arena A.null));
    oob "set_i16 null" (fun () -> A.set_i16 arena A.null 1);
    oob "get_i32 null" (fun () -> ignore (A.get_i32 arena A.null));
    oob "get_i64 null" (fun () -> ignore (A.get_i64 arena A.null));
    oob "set_i64 null" (fun () -> A.set_i64 arena A.null 1L)
  in
  deref_null ();
  ignore (A.alloc (A.allocator arena) 64);
  deref_null ();
  A.reset arena;
  Alcotest.(check int) "reset arena holds no bytes" 0 (A.resident_bytes arena);
  deref_null ();
  Alcotest.(check (list string)) "arena coherent" [] (A.check arena)

(* a function that returns the int64 at its pointer argument *)
let load_ptr () =
  let b = Builder.create ~name:"load_ptr" ~params:[ Types.Ptr ] in
  Builder.ret b (Builder.load b Types.I64 (Builder.param b 0));
  let f = Builder.finish b in
  Layout.normalize f;
  f

let test_wild_ir_load_raises () =
  let module CM = Aeq_backend.Cost_model in
  let module C = Aeq_backend.Compiler in
  let no_symbols : Aeq_vm.Rt_fn.resolver = fun _ -> None in
  let f = load_ptr () in
  let mem = A.create () in
  let bytecode = Aeq_vm.Translate.translate ~symbols:no_symbols f in
  let unopt =
    (C.compile_unopt_of_bytecode ~cost_model:CM.off ~mem ~n_instrs:(Func.n_instrs f) bytecode)
      .C.exec
  in
  let opt = (C.compile ~cost_model:CM.off ~symbols:no_symbols ~mem ~mode:CM.Opt f).C.exec in
  let tiers =
    [
      ("bytecode", fun args -> Aeq_vm.Interp.run bytecode mem ~args ());
      ("unopt", fun args -> Aeq_backend.Closure_compile.run unopt ~args ());
      ("opt", fun args -> Aeq_backend.Closure_compile.run opt ~args ());
    ]
  in
  let p = A.alloc (A.allocator mem) 8 in
  A.set_i64 mem p 42L;
  List.iter
    (fun (tier, run) ->
      Alcotest.(check int64) (tier ^ " in bounds") 42L (run [| Int64.of_int p |]);
      List.iter
        (fun wild ->
          Alcotest.check_raises
            (Printf.sprintf "%s load %#x" tier wild)
            (Invalid_argument "index out of bounds")
            (fun () -> ignore (run [| Int64.of_int wild |])))
        wild_pointers)
    tiers

let test_concurrent_allocators () =
  (* Several domains allocating concurrently; all pointers must stay
     distinct and usable — the invariant pipeline workers rely on. *)
  let arena = A.create ~chunk_size:4096 () in
  let n_domains = 4 and per = 500 in
  let domains =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            let alloc = A.allocator arena in
            let ptrs = Array.init per (fun i ->
                let p = A.alloc alloc 16 in
                A.set_i64 arena p (Int64.of_int ((d * 1_000_000) + i));
                p)
            in
            ptrs))
  in
  let all = List.concat_map (fun d -> Array.to_list (Domain.join d)) domains in
  let sorted = List.sort_uniq compare all in
  Alcotest.(check int) "all pointers distinct" (n_domains * per) (List.length sorted);
  (* Values written by each domain survived everyone else's growth. *)
  List.iteri
    (fun _ p ->
      let v = A.get_i64 arena p in
      Alcotest.(check bool) "tag intact" true (Int64.compare v 0L >= 0))
    all

let test_lease_release_returns_chunks () =
  let arena = A.create ~chunk_size:1024 () in
  let base_alloc = A.allocator arena in
  ignore (A.alloc base_alloc 64);
  let chunks0 = A.live_chunks arena and resident0 = A.resident_bytes arena in
  let lease = A.lease arena in
  let alloc = A.lease_allocator lease in
  (* spill across several scratch chunks *)
  let ptrs = Array.init 8 (fun i ->
      let p = A.alloc alloc 900 in
      A.set_i64 arena p (Int64.of_int i);
      p)
  in
  Array.iteri
    (fun i p -> Alcotest.(check int64) "scratch intact" (Int64.of_int i) (A.get_i64 arena p))
    ptrs;
  Alcotest.(check bool) "resident grew" true (A.resident_bytes arena > resident0);
  Alcotest.(check bool) "chunks grew" true (A.live_chunks arena > chunks0);
  Alcotest.(check bool) "lease metered" true (A.lease_used lease >= 8 * 900);
  A.release lease;
  Alcotest.(check bool) "lease stale after release" true (A.lease_stale lease);
  Alcotest.(check int) "chunks returned" chunks0 (A.live_chunks arena);
  Alcotest.(check int) "resident back to baseline" resident0 (A.resident_bytes arena);
  A.release lease (* idempotent *)

let test_stale_allocator_raises () =
  let arena = A.create ~chunk_size:1024 () in
  let lease = A.lease arena in
  let alloc = A.lease_allocator lease in
  ignore (A.alloc alloc 64);
  A.release lease;
  Alcotest.check_raises "alloc on released lease" A.Stale_allocator (fun () ->
      ignore (A.alloc alloc 8));
  (* reset stales the base lease's allocators too *)
  let base_alloc = A.allocator arena in
  ignore (A.alloc base_alloc 64);
  A.reset arena;
  Alcotest.check_raises "alloc after reset" A.Stale_allocator (fun () ->
      ignore (A.alloc base_alloc 8));
  (* a fresh allocator on the post-reset arena works *)
  ignore (A.alloc (A.allocator arena) 8)

let test_lease_slot_recycling () =
  let arena = A.create ~chunk_size:1024 () in
  let chunks0 = A.live_chunks arena in
  let peak = ref 0 in
  for _ = 1 to 20 do
    let lease = A.lease arena in
    let alloc = A.lease_allocator lease in
    for _ = 1 to 6 do
      let p = A.alloc alloc 900 in
      A.set_i64 arena p 0x5EEDL
    done;
    peak := max !peak (A.live_chunks arena);
    A.release lease
  done;
  Alcotest.(check int) "no slot leak over cycles" chunks0 (A.live_chunks arena);
  (* recycling means the peak never exceeds one lease's working set
     plus the base, even after 20 cycles *)
  Alcotest.(check bool) "slots recycled, not accreted" true (!peak <= chunks0 + 8);
  (* recycled chunks come back zeroed for the next lease *)
  let lease = A.lease arena in
  let p = A.alloc (A.lease_allocator lease) 900 in
  Alcotest.(check int64) "recycled chunk zeroed" 0L (A.get_i64 arena p);
  A.release lease

let test_concurrent_leases_isolated () =
  let arena = A.create ~chunk_size:4096 () in
  let chunks0 = A.live_chunks arena in
  let n_domains = 4 and per = 300 in
  let domains =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            let lease = A.lease arena in
            let alloc = A.lease_allocator lease in
            let ok = ref true in
            let ptrs = Array.init per (fun i ->
                let p = A.alloc alloc 32 in
                A.set_i64 arena p (Int64.of_int ((d * 1_000_000) + i));
                p)
            in
            Array.iteri
              (fun i p ->
                if A.get_i64 arena p <> Int64.of_int ((d * 1_000_000) + i) then
                  ok := false)
              ptrs;
            A.release lease;
            !ok))
  in
  List.iteri
    (fun d dom ->
      Alcotest.(check bool)
        (Printf.sprintf "domain %d saw only its own writes" d)
        true (Domain.join dom))
    domains;
  Alcotest.(check int) "all leases returned" chunks0 (A.live_chunks arena)

let test_reset_with_live_lease_raises () =
  let arena = A.create ~chunk_size:1024 () in
  let lease = A.lease arena in
  ignore (A.alloc (A.lease_allocator lease) 64);
  Alcotest.(check int) "one live lease" 1 (A.live_leases arena);
  (match A.reset arena with
  | () -> Alcotest.fail "reset must refuse while a scratch lease is live"
  | exception Invalid_argument _ -> ());
  (* the refused reset must not have disturbed the lease *)
  ignore (A.alloc (A.lease_allocator lease) 64);
  A.release lease;
  Alcotest.(check int) "lease accounted" 0 (A.live_leases arena);
  A.reset arena;
  (* post-reset arena is clean and usable *)
  ignore (A.alloc (A.allocator arena) 8);
  Alcotest.(check (list string)) "coherent after reset" [] (A.check arena)

(* --- spare pool: released chunks are reused, zeroed, within bounds --- *)

let check_coherent arena = Alcotest.(check (list string)) "coherent" [] (A.check arena)

(* a lease holding one chunk for an [n]-byte allocation, and that chunk *)
let lease_one arena n =
  let lease = A.lease arena in
  let p = A.alloc (A.lease_allocator lease) n in
  (lease, fst (A.chunk_of arena p))

let test_recycled_chunk_reads_zero () =
  let arena = A.create ~chunk_size:1024 () in
  let lease, chunk = lease_one arena 900 in
  Bigarray.Array1.fill chunk '\xff';
  A.release lease;
  Alcotest.(check int) "chunk pooled" (Bigarray.Array1.dim chunk) (A.spare_bytes arena);
  let lease, again = lease_one arena 900 in
  Alcotest.(check bool) "the pooled chunk is reused" true (again == chunk);
  let zero = ref true in
  for i = 0 to Bigarray.Array1.dim again - 1 do
    if again.{i} <> '\000' then zero := false
  done;
  Alcotest.(check bool) "every byte reads zero" true !zero;
  Alcotest.(check int) "pool drained" 0 (A.spare_bytes arena);
  A.release lease;
  check_coherent arena

let test_large_chunk_reused_at_exact_size () =
  (* a bucket directory bigger than a chunk gets a dedicated chunk of
     its own size; the next directory of that size reuses it *)
  let arena = A.create ~chunk_size:1024 () in
  let dir_bytes = 8 * 4096 in
  let lease, big = lease_one arena dir_bytes in
  Alcotest.(check bool) "dedicated chunk" true (Bigarray.Array1.dim big > 1024);
  A.release lease;
  let lease, other = lease_one arena (dir_bytes / 2) in
  Alcotest.(check bool) "another size is not served from it" false (other == big);
  A.release lease;
  let lease, again = lease_one arena dir_bytes in
  Alcotest.(check bool) "same size reuses it" true (again == big);
  A.release lease;
  check_coherent arena

let test_pool_within_scratch_peak () =
  let arena = A.create ~chunk_size:1024 () in
  let peak = ref 0 in
  let within what =
    peak := max !peak (A.scratch_resident_bytes arena);
    Alcotest.(check bool)
      (Printf.sprintf "%s: spare %d <= scratch peak %d" what (A.spare_bytes arena)
         !peak)
      true
      (A.spare_bytes arena <= !peak)
  in
  (* leases of mixed chunk sizes: pooling every released chunk would
     grow the pool to the sum of all three sizes, past any one lease's
     residency *)
  for i = 1 to 30 do
    let lease = A.lease arena in
    let alloc = A.lease_allocator lease in
    (match i mod 3 with
    | 0 -> for _ = 1 to 4 do ignore (A.alloc alloc 900) done
    | 1 -> ignore (A.alloc alloc 2000)
    | _ -> ignore (A.alloc alloc 3000));
    within "leased";
    A.release lease;
    within "released";
    check_coherent arena
  done;
  Alcotest.(check bool) "spares kept" true (A.spare_bytes arena > 0)

let test_reset_empties_pool () =
  let arena = A.create ~chunk_size:1024 () in
  let lease, _ = lease_one arena 900 in
  A.release lease;
  Alcotest.(check bool) "pool holds the chunk" true (A.spare_bytes arena > 0);
  A.reset arena;
  Alcotest.(check int) "pool empty" 0 (A.spare_bytes arena);
  check_coherent arena

let test_pool_coherent_across_domains () =
  let arena = A.create ~chunk_size:1024 () in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let ok = ref true in
            for i = 1 to 200 do
              let lease = A.lease arena in
              let alloc = A.lease_allocator lease in
              for j = 1 to 1 + ((d + i) mod 4) do
                let p = A.alloc alloc (if j mod 2 = 0 then 3000 else 900) in
                if A.get_i64 arena p <> 0L then ok := false;
                A.set_i64 arena p (Int64.of_int ((d * 1000) + i))
              done;
              A.release lease
            done;
            !ok))
  in
  List.iteri
    (fun d dom ->
      Alcotest.(check bool) (Printf.sprintf "domain %d only saw zeroed memory" d) true
        (Domain.join dom))
    domains;
  Alcotest.(check int) "no live lease" 0 (A.live_leases arena);
  Alcotest.(check int) "no live scratch" 0 (A.scratch_resident_bytes arena);
  check_coherent arena

let prop_roundtrip_random =
  QCheck.Test.make ~name:"arena i64 roundtrip (random offsets)" ~count:200
    QCheck.(list int64)
    (fun xs ->
      let arena = A.create () in
      let alloc = A.allocator arena in
      let cells = List.map (fun v ->
          let p = A.alloc alloc 8 in
          A.set_i64 arena p v;
          (p, v))
          xs
      in
      List.for_all (fun (p, v) -> Int64.equal (A.get_i64 arena p) v) cells)

let () =
  Alcotest.run "mem"
    [
      ( "arena",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "zeroed+aligned" `Quick test_zeroed_and_aligned;
          Alcotest.test_case "null" `Quick test_null_never_allocated;
          Alcotest.test_case "large alloc" `Quick test_large_allocation_dedicated_chunk;
          Alcotest.test_case "stable pointers" `Quick test_pointers_stable_across_growth;
          Alcotest.test_case "bounds checked" `Quick test_bounds_checked;
          Alcotest.test_case "wild pointer raises" `Quick test_wild_pointer_raises;
          Alcotest.test_case "null pointer raises" `Quick test_null_pointer_raises;
          Alcotest.test_case "wild IR load raises in every tier" `Quick test_wild_ir_load_raises;
          Alcotest.test_case "concurrent allocators" `Quick test_concurrent_allocators;
          Alcotest.test_case "lease release returns chunks" `Quick
            test_lease_release_returns_chunks;
          Alcotest.test_case "stale allocator raises" `Quick test_stale_allocator_raises;
          Alcotest.test_case "lease slot recycling" `Quick test_lease_slot_recycling;
          Alcotest.test_case "concurrent leases isolated" `Quick
            test_concurrent_leases_isolated;
          Alcotest.test_case "reset with live lease raises" `Quick
            test_reset_with_live_lease_raises;
          Alcotest.test_case "recycled chunk reads zero" `Quick test_recycled_chunk_reads_zero;
          Alcotest.test_case "large chunk reused at exact size" `Quick
            test_large_chunk_reused_at_exact_size;
          Alcotest.test_case "pool within scratch peak" `Quick test_pool_within_scratch_peak;
          Alcotest.test_case "reset empties pool" `Quick test_reset_empties_pool;
          Alcotest.test_case "pool coherent across domains" `Quick
            test_pool_coherent_across_domains;
          QCheck_alcotest.to_alcotest prop_roundtrip_random;
        ] );
    ]
