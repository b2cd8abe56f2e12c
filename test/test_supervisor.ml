(* Tests for crash containment: a pool worker catches its own crash,
   reclaims what it held while serving or helping (no hung awaits, no
   leaked state) and serves the next task at once; engine health
   reads degraded for the crash window; graceful drain; and a seeded
   crash-injection sweep (AEQ_CRASH_SWEEP overrides the seed count). *)

module Sched = Aeq_exec.Scheduler
module Pool = Aeq_exec.Pool
module Driver = Aeq_exec.Driver
module QE = Aeq_exec.Query_error
module FP = Aeq_util.Probe
module Waiter = Aeq_util.Waiter
module CM = Aeq_backend.Cost_model
module A = Aeq_mem.Arena

let with_clean_failpoints f =
  FP.clear ();
  Fun.protect ~finally:FP.clear f

(* poll until [cond] holds, or fail after [seconds] *)
let eventually ?(seconds = 5.0) name cond =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go () =
    if cond () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "%s: condition not reached within %.1fs" name seconds
    else begin
      Unix.sleepf 0.001;
      go ()
    end
  in
  go ()

(* ---- Waiter ---------------------------------------------------------- *)

let test_waiter () =
  let w = Waiter.create () in
  let t0 = Unix.gettimeofday () in
  Alcotest.(check bool) "timeout returns false" false (Waiter.wait w 0.02);
  Alcotest.(check bool)
    "timeout actually waited" true
    (Unix.gettimeofday () -. t0 >= 0.015);
  Waiter.wake w;
  Alcotest.(check bool) "wake returns true" true (Waiter.wait w 5.0);
  Alcotest.(check bool) "wake is consumed" false (Waiter.wait w 0.01);
  (* wake from another domain interrupts a long wait promptly *)
  let d =
    Domain.spawn (fun () ->
        Unix.sleepf 0.02;
        Waiter.wake w)
  in
  let t0 = Unix.gettimeofday () in
  Alcotest.(check bool) "cross-domain wake" true (Waiter.wait w 10.0);
  Alcotest.(check bool)
    "woken early, not at timeout" true
    (Unix.gettimeofday () -. t0 < 5.0);
  Domain.join d;
  Waiter.dispose w;
  Waiter.dispose w (* idempotent *)

(* ---- scripted scheduler harness -------------------------------------- *)

let ok_result () =
  {
    Driver.names = [ "x" ];
    dtypes = [ Aeq_storage.Dtype.Int ];
    rows = [ [| 42L |] ];
    stats =
      {
        Driver.codegen_seconds = 0.0;
        bc_seconds = 0.0;
        compile_seconds = 0.0;
        exec_seconds = 0.0;
        total_seconds = 0.0;
        rows_out = 1;
        final_modes = [];
        prepared_reuse = false;
        compile_failures = 0;
      };
    trace = None;
    final_cm_modes = [];
  }

(* sleep in small steps, checking the token like the driver's morsel
   guard: [Cancelled] once cancelled, [Timeout] past its deadline *)
let rec csleep cancel remaining =
  match Aeq_exec.Cancel.check cancel with
  | Some e -> QE.raise_error e
  | None ->
    if remaining > 0.0 then begin
      Unix.sleepf (Stdlib.min 0.002 remaining);
      csleep cancel (remaining -. 0.002)
    end

let harness_exec ~mode:_ ~cancel sql =
  match String.split_on_char ':' sql with
  | "sleep" :: d :: _ ->
    csleep cancel (float_of_string d);
    ok_result ()
  | _ -> ok_result ()

(* a 1-thread pool: the scheduler starts its one worker, which serves
   every ticket *)
let with_sched f =
  let pool = Pool.create ~n_threads:1 () in
  let s = Sched.create ~pool () in
  Fun.protect
    ~finally:(fun () ->
      Sched.shutdown s;
      Pool.shutdown pool)
    (fun () -> f s pool)

(* ---- crash of a worker serving a ticket ------------------------------ *)

let test_worker_crash_completes_ticket () =
  with_clean_failpoints (fun () ->
      with_sched (fun s pool ->
          FP.activate ~persistent:false "sched.dispatch" FP.Crash;
          (match Sched.await (Sched.submit s (harness_exec "ok")) with
          | Error (QE.Worker_crashed { domain; _ }) ->
            Alcotest.(check string) "crash names the worker" "pool.worker-0" domain
          | Error e ->
            Alcotest.failf "expected Worker_crashed, got %s" (QE.to_string e)
          | Ok _ -> Alcotest.fail "expected Worker_crashed, got rows");
          (* the crash is counted before the ticket is answered *)
          Alcotest.(check int) "crash counted" 1 (Sched.stats s).Sched.domain_crashes;
          (match Pool.health_reasons pool with
          | [ reason ] ->
            Alcotest.(check bool) "the reason names the worker" true
              (String.starts_with ~prefix:"pool.worker-0 " reason)
          | rs -> Alcotest.failf "expected one health reason, got %d" (List.length rs));
          (* the same worker serves the next query at once *)
          (match Sched.await (Sched.submit s (harness_exec "ok")) with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "post-crash query failed: %s" (QE.to_string e));
          Alcotest.(check int) "still the one worker" 1 (Pool.workers pool);
          let st = Sched.stats s in
          Alcotest.(check int) "one crashed ticket" 1 st.Sched.crashed_tickets;
          Alcotest.(check int) "one crash" 1 st.Sched.domain_crashes))

(* A one-shot crash on the second dispatch: that query's client gets
   Worker_crashed as its answer (it is not re-run), and every query
   before and after it is served by the same worker. *)
let test_worker_crash_then_healthy_serving () =
  with_clean_failpoints (fun () ->
      with_sched (fun s pool ->
          FP.activate ~persistent:false ~on_hit:2 "sched.dispatch" FP.Crash;
          (match Sched.await (Sched.submit s (harness_exec "ok")) with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "first query failed: %s" (QE.to_string e));
          (* second dispatch crashes; every later one is clean *)
          let outcomes = List.init 5 (fun _ -> Sched.await (Sched.submit s (harness_exec "ok"))) in
          let crashed, ok =
            List.partition (function Error (QE.Worker_crashed _) -> true | _ -> false)
              outcomes
          in
          Alcotest.(check int) "exactly one crash victim" 1 (List.length crashed);
          List.iter
            (function
              | Ok _ -> ()
              | Error e -> Alcotest.failf "unexpected error %s" (QE.to_string e))
            ok;
          Alcotest.(check int) "one crash counted" 1 (Sched.stats s).Sched.domain_crashes;
          Alcotest.(check int) "served by the one worker" 1 (Pool.workers pool)))

(* ---- pool worker crash reclaim --------------------------------------- *)

(* Run a job whose helper participants crash; returns the domain the
   [Worker_crashed] error names. *)
let crash_a_worker p =
  let worker_crashed () = Pool.crashes p > 0 in
  match
    Pool.run p (fun ~tid ->
        if tid > 0 then raise (FP.Injected_crash "pool worker bug")
        else
          (* keep the job open until the worker joined and
             crashed, so the barrier must be woken by reclaim *)
          let deadline = Unix.gettimeofday () +. 5.0 in
          while (not (worker_crashed ())) && Unix.gettimeofday () < deadline do
            Unix.sleepf 0.001
          done)
  with
  | () -> Alcotest.fail "expected Worker_crashed from Pool.run"
  | exception QE.Error (QE.Worker_crashed { domain; _ }) -> domain

(* On the engine's own pool: the helper's crash fails the job, the
   engine reads degraded at once and serving again within the pool's
   one-second crash window, and the pool keeps serving meanwhile. *)
let test_pool_worker_crash () =
  with_clean_failpoints (fun () ->
      let engine = Aeq.Engine.create ~n_threads:2 ~cost_model:CM.off () in
      Fun.protect
        ~finally:(fun () -> Aeq.Engine.close engine)
        (fun () ->
          let p = Aeq.Engine.pool engine in
          let domain = crash_a_worker p in
          Alcotest.(check bool)
            "crash names the worker" true
            (String.length domain >= 4 && String.sub domain 0 4 = "pool");
          Alcotest.(check (list string)) "accounting coherent" [] (Pool.check p);
          Alcotest.(check int) "crash counted" 1
            (Aeq.Engine.scheduler_stats engine).Sched.domain_crashes;
          (match Aeq.Engine.health engine with
          | Aeq.Engine.Degraded [ reason ] ->
            Alcotest.(check bool) "the reason names the worker" true
              (String.starts_with ~prefix:(domain ^ " ") reason)
          | h -> Alcotest.failf "expected degraded, got %s" (Aeq.Engine.health_name h));
          (* the worker serves again at once *)
          let hits = Atomic.make 0 in
          Pool.run p (fun ~tid:_ -> Atomic.incr hits);
          Alcotest.(check bool) "pool serves after the crash" true (Atomic.get hits >= 1);
          eventually ~seconds:2.0 "serving within the crash window" (fun () ->
              Aeq.Engine.health engine = Aeq.Engine.Serving)))

(* ---- graceful drain --------------------------------------------------- *)

let test_scheduler_drain () =
  with_clean_failpoints (fun () ->
      with_sched (fun s _ ->
          let tk = Sched.submit s (harness_exec "sleep:0.1") in
          let drain_clean = ref false in
          let d = Domain.spawn (fun () -> drain_clean := Sched.drain ~deadline_seconds:10.0 s) in
          eventually "drain closes admission" (fun () -> Sched.draining s);
          (* new work is rejected while draining *)
          (match Sched.await (Sched.submit s (harness_exec "ok")) with
          | Error (QE.Rejected reason) ->
            Alcotest.(check string) "rejected as draining" "draining" reason
          | Error e -> Alcotest.failf "expected Rejected, got %s" (QE.to_string e)
          | Ok _ -> Alcotest.fail "draining scheduler must reject new work");
          (* ... but the in-flight query finishes normally *)
          (match Sched.await tk with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "in-flight query lost to drain: %s" (QE.to_string e));
          Domain.join d;
          Alcotest.(check bool) "drain reached quiescence" true !drain_clean))

let test_engine_drain () =
  with_clean_failpoints (fun () ->
      let engine = Aeq.Engine.create ~n_threads:1 ~cost_model:CM.off () in
      Aeq.Engine.load_tpch engine ~scale_factor:0.002;
      Alcotest.(check string)
        "serving" "serving"
        (Aeq.Engine.health_name (Aeq.Engine.health engine));
      let sql = "select count(*) as n from lineitem" in
      (match Sched.await (Aeq.Engine.submit engine sql) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "warmup failed: %s" (QE.to_string e));
      let clean = Aeq.Engine.drain ~deadline_seconds:10.0 engine in
      Alcotest.(check bool) "drain clean" true clean;
      Alcotest.(check bool) "engine closed" true (Aeq.Engine.closed engine);
      Alcotest.(check string)
        "stopped" "stopped"
        (Aeq.Engine.health_name (Aeq.Engine.health engine));
      (* direct queries are refused after the drain *)
      match Aeq.Engine.query engine sql with
      | _ -> Alcotest.fail "drained engine must reject queries"
      | exception QE.Error (QE.Rejected _) -> ())

(* An in-process query is an admitted ticket: a drain from another
   domain waits for it, instead of closing the pool under it. *)
let test_engine_drain_waits_for_query () =
  with_clean_failpoints (fun () ->
      let engine = Aeq.Engine.create ~n_threads:2 ~cost_model:CM.off () in
      Aeq.Engine.load_tpch engine ~scale_factor:0.005;
      let sql = Aeq_workload.Queries.tpch_q 3 in
      let sorted (r : Driver.result) = List.sort Stdlib.compare r.Driver.rows in
      let expected = sorted (Aeq.Engine.query engine sql) in
      FP.activate "driver.morsel" (FP.Delay 0.01);
      let query =
        Domain.spawn (fun () ->
            let r =
              match Aeq.Engine.query engine sql with
              | r -> Ok (sorted r)
              | exception QE.Error e -> Error (QE.to_string e)
            in
            (r, Unix.gettimeofday ()))
      in
      eventually "the query is in flight" (fun () ->
          (Aeq.Engine.scheduler_stats engine).Sched.in_flight = 1);
      let clean = Aeq.Engine.drain ~deadline_seconds:30.0 engine in
      let drained_at = Unix.gettimeofday () in
      let rows, answered_at = Domain.join query in
      (match rows with
      | Ok rows -> Alcotest.(check bool) "the query answered with its rows" true (rows = expected)
      | Error e -> Alcotest.failf "in-process query lost to the drain: %s" e);
      Alcotest.(check bool) "drain clean" true clean;
      Alcotest.(check bool) "drain returned after the query answered" true
        (drained_at >= answered_at);
      match Aeq.Engine.query engine sql with
      | _ -> Alcotest.fail "drained engine must reject queries"
      | exception QE.Error (QE.Rejected "draining") -> ())

(* ---- seeded crash-injection sweep ------------------------------------ *)

(* Every builtin site, workers serving and helping, random hit
   counts, concurrent clients: no await may hang, every client gets
   rows or a structured error, and at quiescence the arena has no
   leaked leases and the engine reads serving again within the
   crash window. *)
let crash_sweep_seeds () =
  match Sys.getenv_opt "AEQ_CRASH_SWEEP" with
  | Some n -> (try Stdlib.max 1 (int_of_string n) with _ -> 25)
  | None -> 25

let test_crash_sweep () =
  with_clean_failpoints (fun () ->
      let engine = Aeq.Engine.create ~n_threads:2 ~cost_model:CM.off () in
      Aeq.Engine.load_tpch engine ~scale_factor:0.002;
      let arena = Aeq_storage.Catalog.arena (Aeq.Engine.catalog engine) in
      let sites = FP.valid_sites () in
      (* warm up, then snapshot the lease baseline *)
      (match Sched.await (Aeq.Engine.submit engine "select count(*) as n from lineitem") with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "sweep warmup failed: %s" (QE.to_string e));
      let quiesce () =
        eventually "scheduler quiescent" (fun () ->
            let st = Aeq.Engine.scheduler_stats engine in
            st.Sched.in_flight = 0 && st.Sched.queue_depth = 0)
      in
      quiesce ();
      let lease_baseline = A.live_leases arena in
      let seeds = crash_sweep_seeds () in
      let hung = ref [] in
      for seed = 0 to seeds - 1 do
        let site = List.nth sites (seed mod List.length sites) in
        let on_hit = 1 + (seed mod 5) in
        FP.clear ();
        FP.activate ~persistent:false ~on_hit site FP.Crash;
        (* vary the text so each seed exercises a fresh prepare too *)
        let sql =
          Printf.sprintf "select count(*) as n from lineitem where l_quantity < %d"
            (10 + seed)
        in
        let results = Array.make 4 None in
        let clients =
          List.init 4 (fun c ->
              Domain.spawn (fun () ->
                  for _ = 1 to 5 do
                    let r =
                      Sched.await (Aeq.Engine.submit engine ~deadline_seconds:30.0 sql)
                    in
                    results.(c) <- Some r
                  done))
        in
        List.iter Domain.join clients;
        Array.iteri
          (fun c r ->
            match r with
            | None -> hung := Printf.sprintf "seed %d client %d: no outcome" seed c :: !hung
            | Some (Ok _) | Some (Error _) -> ())
          results;
        quiesce ()
      done;
      FP.clear ();
      Alcotest.(check (list string)) "every await resolved" [] !hung;
      (* quiescence invariants: nothing leaked, everybody healthy *)
      eventually "leases back to baseline" (fun () ->
          A.live_leases arena <= lease_baseline);
      Alcotest.(check (list string)) "arena coherent" [] (A.check arena);
      Alcotest.(check (list string))
        "pool coherent" []
        (Pool.check (Aeq.Engine.pool engine));
      eventually ~seconds:2.0 "engine serving within the crash window" (fun () ->
          Aeq.Engine.health engine = Aeq.Engine.Serving);
      Alcotest.(check bool) "crashes counted in stats" true
        ((Aeq.Engine.scheduler_stats engine).Sched.domain_crashes >= 1);
      (* and the engine still serves *)
      (match Sched.await (Aeq.Engine.submit engine "select count(*) as n from lineitem") with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "engine broken after sweep: %s" (QE.to_string e));
      Aeq.Engine.close engine)

let () =
  Alcotest.run "supervisor"
    [
      ("waiter", [ Alcotest.test_case "timed wait + wake" `Quick test_waiter ]);
      ( "scheduler",
        [
          Alcotest.test_case "worker crash completes ticket" `Quick
            test_worker_crash_completes_ticket;
          Alcotest.test_case "crash mid-stream" `Quick
            test_worker_crash_then_healthy_serving;
          Alcotest.test_case "graceful drain" `Quick test_scheduler_drain;
        ] );
      ( "pool",
        [
          Alcotest.test_case "worker crash reclaim" `Quick test_pool_worker_crash;
        ] );
      ( "engine",
        [
          Alcotest.test_case "drain closes admission" `Quick test_engine_drain;
          Alcotest.test_case "drain waits for an in-process query" `Quick
            test_engine_drain_waits_for_query;
          Alcotest.test_case "crash sweep" `Slow test_crash_sweep;
        ] );
    ]
