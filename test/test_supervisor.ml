(* Tests for the supervision layer: crash barriers and in-domain
   restarts (Supervisor), restart budgets and give-up escalation,
   pool-worker crash reclaim, serving and helping (no hung awaits, no
   leaked state), engine health states, graceful drain, and a seeded
   crash-injection sweep (AEQ_CRASH_SWEEP overrides the seed count). *)

module Sup = Aeq_exec.Supervisor
module Sched = Aeq_exec.Scheduler
module Pool = Aeq_exec.Pool
module Driver = Aeq_exec.Driver
module QE = Aeq_exec.Query_error
module FP = Aeq_util.Probe
module Waiter = Aeq_util.Waiter
module CM = Aeq_backend.Cost_model
module A = Aeq_mem.Arena
module Sim = Aeq_sim.Sched

let with_clean_failpoints f =
  FP.clear ();
  Sup.clear_crash_log ();
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

(* ---- Supervisor unit -------------------------------------------------- *)

exception Boom

let fast_policy =
  { Sup.max_restarts = 8; window_seconds = 10.0; backoff_base = 0.001; backoff_max = 0.01 }

let test_supervisor_restarts () =
  with_clean_failpoints (fun () ->
      let runs = Atomic.make 0 in
      let stop = Atomic.make false in
      let crash_seen = Atomic.make 0 in
      let sv =
        Sup.spawn ~policy:fast_policy ~name:"unit.crasher"
          ~on_crash:(fun _ -> Atomic.incr crash_seen)
          (fun () ->
            let n = Atomic.fetch_and_add runs 1 in
            if n < 3 then raise Boom
            else
              while not (Atomic.get stop) do
                Unix.sleepf 0.001
              done)
      in
      eventually "body survived three crashes" (fun () -> Atomic.get runs >= 4);
      Alcotest.(check int) "three crashes caught" 3 (Sup.crashes sv);
      Alcotest.(check int) "three restarts consumed" 3 (Sup.restarts sv);
      Alcotest.(check string) "running again" "running" (Sup.state_name (Sup.state sv));
      Alcotest.(check int) "on_crash ran per crash" 3 (Atomic.get crash_seen);
      Alcotest.(check (option string)) "healthy" None (Sup.health_reason sv);
      Atomic.set stop true;
      Sup.stop sv;
      Sup.join sv;
      Alcotest.(check string) "stopped" "stopped" (Sup.state_name (Sup.state sv));
      (* crash log recorded every catch, newest first, all restarts *)
      let log = Sup.crash_log () in
      Alcotest.(check int) "crash log has all three" 3 (List.length log);
      List.iter
        (fun c ->
          Alcotest.(check string) "log domain" "unit.crasher" c.Sup.cr_domain;
          Alcotest.(check bool) "logged as restarted" true (c.Sup.cr_action = Sup.Restarted))
        log)

let test_supervisor_gives_up () =
  with_clean_failpoints (fun () ->
      let policy = { fast_policy with Sup.max_restarts = 2 } in
      let gave_up = Atomic.make false in
      let sv =
        Sup.spawn ~policy ~name:"unit.crashloop"
          ~on_give_up:(fun _ -> Atomic.set gave_up true)
          (fun () -> raise Boom)
      in
      eventually "budget exhausts" (fun () -> Sup.state sv = Sup.Failed);
      Sup.stop sv;
      Sup.join sv;
      Alcotest.(check bool) "on_give_up fired" true (Atomic.get gave_up);
      Alcotest.(check int) "crashes = budget + 1" 3 (Sup.crashes sv);
      Alcotest.(check int) "restarts = budget" 2 (Sup.restarts sv);
      (match Sup.health_reason sv with
      | Some r ->
        Alcotest.(check bool)
          "reason mentions the budget" true
          (String.length r > 0)
      | None -> Alcotest.fail "Failed supervisor must report a health reason");
      let newest = List.hd (Sup.crash_log ()) in
      Alcotest.(check bool) "last entry gave up" true (newest.Sup.cr_action = Sup.Gave_up))

(* deterministic replay: the inline supervised loop under the simulator
   takes the same schedule to the same crash/restart sequence *)
let test_supervisor_sim_deterministic () =
  with_clean_failpoints (fun () ->
      let run_once () =
        Sup.clear_crash_log ();
        let policy =
          (* zero backoff: virtual time advances only 0.1ns per clock
             read, so a real pause would livelock the simulation *)
          { Sup.max_restarts = 4; window_seconds = 10.0; backoff_base = 0.0;
            backoff_max = 0.0 }
        in
        let trace = ref [] in
        let crashed = ref false in
        let sv =
          Sup.create ~policy ~name:"sim.supervised"
            ~on_crash:(fun _ -> trace := "crash" :: !trace)
            (fun () ->
              Aeq_util.Probe.yield "test.body";
              if not !crashed then begin
                crashed := true;
                raise Boom
              end;
              trace := "done" :: !trace)
        in
        let peer_steps = ref 0 in
        let outcome =
          Sim.run ~seed:11L
            ~tasks:
              [
                ("supervised", fun () -> Sup.run sv);
                ( "peer",
                  fun () ->
                    for _ = 1 to 5 do
                      incr peer_steps;
                      Aeq_util.Probe.yield "test.peer"
                    done );
              ]
            ()
        in
        Alcotest.(check bool) "sim run clean" false (Sim.failed outcome);
        Alcotest.(check string) "stopped" "stopped" (Sup.state_name (Sup.state sv));
        (List.rev !trace, Sup.crashes sv, List.length (Sup.crash_log ()))
      in
      let a = run_once () in
      let b = run_once () in
      Alcotest.(check bool) "same seed, same crash/restart sequence" true (a = b);
      let trace, crashes, logged = a in
      Alcotest.(check (list string)) "crash then restart then done"
        [ "crash"; "done" ] trace;
      Alcotest.(check int) "one crash" 1 crashes;
      Alcotest.(check int) "one log entry" 1 logged)

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

let sup_config = { Sched.default_config with restart_policy = fast_policy }

(* a 1-thread pool: the scheduler starts its one worker, which serves
   every ticket *)
let with_sched ?(config = sup_config) f =
  let pool = Pool.create ~restart_policy:config.Sched.restart_policy ~n_threads:1 () in
  let s = Sched.create ~config ~pool () in
  Fun.protect
    ~finally:(fun () ->
      Sched.shutdown s;
      Pool.shutdown pool)
    (fun () -> f s pool)

(* ---- crash of a worker serving a ticket ------------------------------ *)

let test_worker_crash_completes_ticket () =
  with_clean_failpoints (fun () ->
      with_sched (fun s _ ->
          FP.activate ~persistent:false "sched.dispatch" FP.Crash;
          (match Sched.await (Sched.submit s (harness_exec "ok")) with
          | Error (QE.Worker_crashed { domain; _ }) ->
            Alcotest.(check string) "crash names the worker" "pool.worker-0" domain
          | Error e ->
            Alcotest.failf "expected Worker_crashed, got %s" (QE.to_string e)
          | Ok _ -> Alcotest.fail "expected Worker_crashed, got rows");
          (* the worker restarted: the next query is served *)
          (match Sched.await (Sched.submit s (harness_exec "ok")) with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "post-restart query failed: %s" (QE.to_string e));
          let st = Sched.stats s in
          Alcotest.(check int) "one crashed ticket" 1 st.Sched.crashed_tickets;
          Alcotest.(check bool) "crash counted" true (st.Sched.domain_crashes >= 1);
          Alcotest.(check bool) "restart counted" true (st.Sched.domain_restarts >= 1);
          Alcotest.(check bool)
            "crash log names the site" true
            (List.exists
               (fun c -> c.Sup.cr_domain = "pool.worker-0")
               (Sup.crash_log ()))))

(* A one-shot crash on the second dispatch: that query's client gets
   Worker_crashed as its answer (it is not re-run), and every query
   before and after it is served by the restarted worker. *)
let test_worker_crash_then_healthy_serving () =
  with_clean_failpoints (fun () ->
      with_sched (fun s _ ->
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
            ok))

(* ---- pool worker crash reclaim --------------------------------------- *)

(* Run a job whose helper participants crash; returns the domain the
   [Worker_crashed] error names. *)
let crash_a_worker p =
  let worker_crashed () = List.exists (fun sv -> Sup.crashes sv > 0) (Pool.supervisors p) in
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

let test_pool_worker_crash () =
  with_clean_failpoints (fun () ->
      let p = Pool.create ~restart_policy:fast_policy ~n_threads:2 () in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown p)
        (fun () ->
          let domain = crash_a_worker p in
          Alcotest.(check bool)
            "crash names the worker" true
            (String.length domain >= 4 && String.sub domain 0 4 = "pool");
          Alcotest.(check (list string)) "accounting coherent" [] (Pool.check p);
          (* the worker restarted and serves again *)
          eventually "worker healthy again" (fun () -> Pool.health_reasons p = []);
          let hits = Atomic.make 0 in
          Pool.run p (fun ~tid:_ -> Atomic.incr hits);
          Alcotest.(check bool) "pool serves after restart" true (Atomic.get hits >= 1)))

(* The engine's scheduler config's restart policy reaches the pool's
   workers: with a zero budget, one worker crash is final (the default
   policy would restart it). *)
let test_engine_policy_reaches_pool () =
  with_clean_failpoints (fun () ->
      let engine =
        Aeq.Engine.create ~n_threads:2 ~cost_model:CM.off
          ~scheduler_config:
            {
              Sched.default_config with
              restart_policy = { fast_policy with Sup.max_restarts = 0 };
            }
          ()
      in
      Fun.protect
        ~finally:(fun () -> Aeq.Engine.close engine)
        (fun () ->
          let p = Aeq.Engine.pool engine in
          ignore (crash_a_worker p);
          eventually "worker out of budget" (fun () ->
              List.exists (fun sv -> Sup.state sv = Sup.Failed) (Pool.supervisors p));
          match Aeq.Engine.health engine with
          | Aeq.Engine.Degraded _ -> ()
          | h -> Alcotest.failf "expected degraded, got %s" (Aeq.Engine.health_name h)))

(* ---- health state machine -------------------------------------------- *)

let test_health_degraded_and_back () =
  with_clean_failpoints (fun () ->
      (* slow restart so the Backing_off window is observable *)
      let config =
        {
          sup_config with
          Sched.restart_policy =
            { fast_policy with Sup.backoff_base = 0.2; backoff_max = 0.2 };
        }
      in
      with_sched ~config (fun s pool ->
          Alcotest.(check (list string)) "healthy at start" [] (Pool.health_reasons pool);
          FP.activate ~persistent:false "sched.dispatch" FP.Crash;
          (match Sched.await (Sched.submit s (harness_exec "ok")) with
          | Error (QE.Worker_crashed _) -> ()
          | _ -> Alcotest.fail "expected the serving worker to crash");
          eventually "degraded during backoff" (fun () -> Pool.health_reasons pool <> []);
          eventually "serving again after restart" (fun () ->
              Pool.health_reasons pool = []);
          match Sched.await (Sched.submit s (harness_exec "ok")) with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "post-recovery query failed: %s" (QE.to_string e)))

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
      let flushed = ref false in
      let clean =
        Aeq.Engine.drain ~deadline_seconds:10.0 ~flush:(fun () -> flushed := true) engine
      in
      Alcotest.(check bool) "drain clean" true clean;
      Alcotest.(check bool) "flush ran" true !flushed;
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
   leaked leases and every supervised domain is healthy again. *)
let crash_sweep_seeds () =
  match Sys.getenv_opt "AEQ_CRASH_SWEEP" with
  | Some n -> (try Stdlib.max 1 (int_of_string n) with _ -> 25)
  | None -> 25

let test_crash_sweep () =
  with_clean_failpoints (fun () ->
      let engine =
        Aeq.Engine.create ~n_threads:2 ~cost_model:CM.off
          ~scheduler_config:
            {
              Sched.default_config with
              queue_capacity = 64;
              restart_policy =
                (* generous budget: the sweep injects one crash per seed
                   and must never exhaust a supervisor *)
                { Sup.max_restarts = 10_000; window_seconds = 10.0;
                  backoff_base = 0.0005; backoff_max = 0.005 };
            }
          ()
      in
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
      eventually "engine healthy after the sweep" (fun () ->
          match Aeq.Engine.health engine with
          | Aeq.Engine.Serving -> true
          | _ -> false);
      let st = Aeq.Engine.scheduler_stats engine in
      Alcotest.(check bool)
        "restart budget observable in stats" true
        (st.Sched.domain_crashes >= 1 && st.Sched.domain_restarts >= 1);
      (* and the engine still serves *)
      (match Sched.await (Aeq.Engine.submit engine "select count(*) as n from lineitem") with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "engine broken after sweep: %s" (QE.to_string e));
      Aeq.Engine.close engine)

let () =
  Alcotest.run "supervisor"
    [
      ("waiter", [ Alcotest.test_case "timed wait + wake" `Quick test_waiter ]);
      ( "supervisor",
        [
          Alcotest.test_case "restarts within budget" `Quick test_supervisor_restarts;
          Alcotest.test_case "gives up past budget" `Quick test_supervisor_gives_up;
          Alcotest.test_case "deterministic under sim" `Quick
            test_supervisor_sim_deterministic;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "worker crash completes ticket" `Quick
            test_worker_crash_completes_ticket;
          Alcotest.test_case "crash mid-stream" `Quick
            test_worker_crash_then_healthy_serving;
          Alcotest.test_case "health degraded and back" `Quick
            test_health_degraded_and_back;
          Alcotest.test_case "graceful drain" `Quick test_scheduler_drain;
        ] );
      ( "pool",
        [
          Alcotest.test_case "worker crash reclaim" `Quick test_pool_worker_crash;
          Alcotest.test_case "engine policy reaches workers" `Quick
            test_engine_policy_reaches_pool;
        ] );
      ( "engine",
        [
          Alcotest.test_case "drain closes admission" `Quick test_engine_drain;
          Alcotest.test_case "drain waits for an in-process query" `Quick
            test_engine_drain_waits_for_query;
          Alcotest.test_case "crash sweep" `Slow test_crash_sweep;
        ] );
    ]
