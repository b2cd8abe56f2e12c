(* N-domain parallel query serving over the per-query execution-context
   architecture: correct results under concurrent distinct queries,
   concurrent executions of one cached plan, cross-query isolation
   under traps and injected faults, arena-lease hygiene (scratch
   returned on success and error paths alike), and admitted queries
   served by the pool's workers within the domain budget. *)

module CM = Aeq_backend.Cost_model
module Driver = Aeq_exec.Driver
module Pool = Aeq_exec.Pool
module Sched = Aeq_exec.Scheduler
module QE = Aeq_exec.Query_error
module FP = Aeq_util.Probe
module A = Aeq_mem.Arena

let with_engine ?(n_threads = 4) ?(sf = 0.005) f =
  let engine = Aeq.Engine.create ~n_threads ~cost_model:CM.off () in
  Aeq.Engine.load_tpch engine ~scale_factor:sf;
  Fun.protect ~finally:(fun () -> Aeq.Engine.close engine) (fun () -> f engine)

let with_clean_failpoints f =
  FP.clear ();
  Fun.protect ~finally:FP.clear f

(* eight distinct statements with different shapes: wide aggregation,
   selective filter, plain counts, a group-by without order (row order
   nondeterministic -> compare sorted) *)
let statements =
  [|
    Aeq_workload.Queries.tpch_q 1;
    Aeq_workload.Queries.tpch_q 6;
    "select count(*) as n from lineitem";
    "select sum(l_quantity) as s from lineitem";
    "select count(*) as n from orders";
    "select sum(l_extendedprice) as s from lineitem";
    "select count(*) as n from customer";
    "select l_returnflag, sum(l_quantity) as s from lineitem group by l_returnflag";
  |]

let sorted_rows (r : Driver.result) = List.sort Stdlib.compare r.Driver.rows

let modes = [| Driver.Bytecode; Driver.Unopt; Driver.Opt; Driver.Adaptive |]

let div0_sql = "select l_quantity / (l_linenumber - l_linenumber) from lineitem"

(* (i) 8 concurrent distinct queries, every mode, all correct *)
let test_concurrent_distinct_queries () =
  with_engine (fun engine ->
      let reference =
        Array.map (fun sql -> sorted_rows (Aeq.Engine.query engine sql)) statements
      in
      let wrong = Atomic.make 0 and failures = Atomic.make 0 in
      let client d () =
        for i = 0 to 2 do
          let mode = modes.((d + i) mod Array.length modes) in
          match Aeq.Engine.query engine ~mode statements.(d) with
          | r -> if sorted_rows r <> reference.(d) then Atomic.incr wrong
          | exception _ -> Atomic.incr failures
        done
      in
      let domains =
        List.init (Array.length statements) (fun d -> Domain.spawn (client d))
      in
      List.iter Domain.join domains;
      Alcotest.(check int) "no failures" 0 (Atomic.get failures);
      Alcotest.(check int) "all results correct" 0 (Atomic.get wrong))

(* (i') the same cached plan executing concurrently with itself — the
   per-execution binding/context split under direct stress *)
let test_concurrent_same_statement () =
  with_engine (fun engine ->
      let sql = statements.(7) in
      let reference = sorted_rows (Aeq.Engine.query engine sql) in
      let wrong = Atomic.make 0 and failures = Atomic.make 0 in
      let client d () =
        for i = 0 to 3 do
          let mode = modes.((d + i) mod Array.length modes) in
          match Aeq.Engine.query engine ~mode sql with
          | r -> if sorted_rows r <> reference then Atomic.incr wrong
          | exception _ -> Atomic.incr failures
        done
      in
      let domains = List.init 8 (fun d -> Domain.spawn (client d)) in
      List.iter Domain.join domains;
      Alcotest.(check int) "no failures" 0 (Atomic.get failures);
      Alcotest.(check int) "all executions correct" 0 (Atomic.get wrong);
      Alcotest.(check bool) "served from one cache entry" true
        ((Aeq.Engine.cache_stats engine).Aeq.Engine.hits >= 32))

(* (ii) isolation: domains hammering a trapping query run concurrently
   with domains running sound queries; the trap must neither corrupt
   nor stall the sound ones *)
let test_trap_isolation () =
  with_engine (fun engine ->
      let good = statements.(3) in
      let reference = sorted_rows (Aeq.Engine.query engine good) in
      let wrong = Atomic.make 0
      and good_failed = Atomic.make 0
      and trap_missed = Atomic.make 0 in
      let good_client () =
        for _ = 1 to 6 do
          match Aeq.Engine.query engine good with
          | r -> if sorted_rows r <> reference then Atomic.incr wrong
          | exception _ -> Atomic.incr good_failed
        done
      in
      let trap_client () =
        for _ = 1 to 6 do
          match Aeq.Engine.query engine div0_sql with
          | _ -> Atomic.incr trap_missed
          | exception QE.Error (QE.Trap _) -> ()
          | exception _ -> Atomic.incr trap_missed
        done
      in
      let domains =
        List.init 4 (fun d ->
            Domain.spawn (if d mod 2 = 0 then good_client else trap_client))
      in
      List.iter Domain.join domains;
      Alcotest.(check int) "trapping query always trapped" 0 (Atomic.get trap_missed);
      Alcotest.(check int) "sound queries never failed" 0 (Atomic.get good_failed);
      Alcotest.(check int) "sound queries never corrupted" 0 (Atomic.get wrong))

(* (iii) lease hygiene: after a chaos soak across success, trap,
   injected-fault, and budget-breach paths, every scratch lease is
   back in the pool — chunk count and resident bytes at baseline *)
let test_lease_hygiene_after_chaos () =
  with_engine (fun engine ->
      let arena = Aeq_storage.Catalog.arena (Aeq.Engine.catalog engine) in
      (* warm the plan cache first so the soak measures execution
         scratch only, not one-time preparation *)
      Array.iter (fun sql -> ignore (Aeq.Engine.query engine sql)) statements;
      (try ignore (Aeq.Engine.query engine div0_sql) with QE.Error _ -> ());
      let baseline_chunks = A.live_chunks arena in
      let baseline_resident = A.resident_bytes arena in
      with_clean_failpoints (fun () ->
          FP.set_seed 0x1EA5EL;
          FP.activate "driver.morsel" (FP.Prob_fail 0.02);
          FP.activate "arena.alloc" (FP.Prob_fail 0.02);
          let unexpected = Atomic.make 0 in
          let client d () =
            for i = 0 to 9 do
              let k = (d + i) mod Array.length statements in
              let run () =
                match i mod 5 with
                | 0 -> ignore (Aeq.Engine.query engine div0_sql)
                | 1 ->
                  (* tight budget: some executions die on the
                     memory-budget guard mid-pipeline *)
                  ignore
                    (Aeq.Engine.query engine ~memory_budget_bytes:4096 statements.(k))
                | _ -> ignore (Aeq.Engine.query engine statements.(k))
              in
              match run () with
              | () -> ()
              | exception QE.Error _ -> ()
              | exception _ -> Atomic.incr unexpected
            done
          in
          let domains = List.init 8 (fun d -> Domain.spawn (client d)) in
          List.iter Domain.join domains;
          Alcotest.(check int) "only structured errors under chaos" 0
            (Atomic.get unexpected));
      Alcotest.(check int) "all scratch chunk slots returned" baseline_chunks
        (A.live_chunks arena);
      Alcotest.(check int) "resident bytes back to baseline" baseline_resident
        (A.resident_bytes arena))

(* (iv) admitted queries run on pool workers: each ticket's worker is
   tid 0 of that query's jobs and waits only in that query's barrier.
   A worker that waited on another query's barrier, or ran other work
   from inside its own, could leave two workers waiting on each other
   and tickets unanswered. Multi-pipeline queries on a 2-thread
   engine, 16 tickets in flight at once. *)
let test_admitted_no_nested_barriers () =
  with_engine ~n_threads:2 ~sf:0.01 (fun engine ->
      let queries = Array.map Aeq_workload.Queries.tpch_q [| 1; 3; 18 |] in
      let reference =
        Array.map (fun sql -> sorted_rows (Aeq.Engine.query engine sql)) queries
      in
      let tickets =
        List.init 16 (fun i ->
            let k = i mod Array.length queries in
            (k, Aeq.Engine.submit engine queries.(k)))
      in
      let deadline = Unix.gettimeofday () +. 60.0 in
      let rec answer tk =
        match Sched.poll tk with
        | Some outcome -> outcome
        | None ->
          if Unix.gettimeofday () > deadline then
            Alcotest.fail "a ticket was not answered within 60 s";
          Unix.sleepf 0.002;
          answer tk
      in
      List.iter
        (fun (k, tk) ->
          match answer tk with
          | Ok r ->
            Alcotest.(check bool) "bag-equal to the direct query" true
              (sorted_rows r = reference.(k))
          | Error e -> Alcotest.failf "ticket failed: %s" (QE.to_string e))
        tickets;
      Alcotest.(check (list string)) "pool accounting coherent" []
        (Pool.check (Aeq.Engine.pool engine)))

(* (v) one domain kind: an engine starts no worker, so loading waits on
   no idle domain; the first direct query starts n-1 (each caller is
   the n-th participant of its own query); the first admitted query
   starts the n-th, since it has no caller domain *)
let test_domain_budget () =
  with_engine ~n_threads:2 (fun engine ->
      let workers () = Pool.workers (Aeq.Engine.pool engine) in
      Alcotest.(check int) "no worker at create" 0 (workers ());
      ignore (Aeq.Engine.query engine statements.(2));
      Alcotest.(check int) "the first direct query starts n-1" 1 (workers ());
      ignore (Aeq.Engine.query engine statements.(2));
      Alcotest.(check int) "a second direct query starts none" 1 (workers ());
      for _ = 1 to 2 do
        match Sched.await (Aeq.Engine.submit engine statements.(2)) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "admitted query failed: %s" (QE.to_string e)
      done;
      Alcotest.(check int) "the first submit starts the n-th" 2 (workers ()))

let () =
  Alcotest.run "parallel"
    [
      ( "parallel-queries",
        [
          Alcotest.test_case "8 concurrent distinct queries" `Quick
            test_concurrent_distinct_queries;
          Alcotest.test_case "concurrent executions of one cached plan" `Quick
            test_concurrent_same_statement;
          Alcotest.test_case "trap isolation" `Quick test_trap_isolation;
          Alcotest.test_case "lease hygiene after chaos" `Quick
            test_lease_hygiene_after_chaos;
          Alcotest.test_case "admitted queries never nest barriers" `Quick
            test_admitted_no_nested_barriers;
          Alcotest.test_case "domain budget" `Quick test_domain_budget;
        ] );
    ]
