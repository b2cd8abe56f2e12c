(* Tests for concurrent query serving: the admission queue (priorities,
   bounds, shedding, deadlines), one answer per admitted query,
   deadlines enforced through the cancel token, probabilistic
   failpoints, the now-thread-safe engine plan cache, and a chaos
   soak. *)

module Sched = Aeq_exec.Scheduler
module Driver = Aeq_exec.Driver
module QE = Aeq_exec.Query_error
module FP = Aeq_util.Probe
module CM = Aeq_backend.Cost_model
module Clock = Aeq_util.Clock

let with_clean_failpoints f =
  FP.clear ();
  Fun.protect ~finally:FP.clear f

let eager_model =
  {
    CM.default with
    CM.simulate = false;
    unopt_base = 0.0;
    unopt_per_instr = 0.0;
    opt_base = 0.0;
    opt_per_instr = 0.0;
    opt_quad = 0.0;
    speedup_unopt = 10.0;
    speedup_opt = 20.0;
  }

(* ---- a fake execution core ------------------------------------------ *)
(* Scheduler semantics (queueing, outcomes, deadlines) are tested
   against a scripted [exec] — no engine, no SQL. The "sql" strings are
   commands: ok | sleep:<s> | transient:<n>:<tag> (an injected-fault
   trap on the first n executions) | crashed:<tag>. *)

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

type harness = {
  h_lock : Mutex.t;
  mutable h_served : string list; (* reverse dispatch order *)
  h_counts : (string, int) Hashtbl.t; (* executions per command *)
}

let make_harness () =
  { h_lock = Mutex.create (); h_served = []; h_counts = Hashtbl.create 8 }

let harness_exec h ~mode:_ ~cancel sql =
  let n =
    Mutex.lock h.h_lock;
    h.h_served <- sql :: h.h_served;
    let n = (match Hashtbl.find_opt h.h_counts sql with Some n -> n | None -> 0) + 1 in
    Hashtbl.replace h.h_counts sql n;
    Mutex.unlock h.h_lock;
    n
  in
  match String.split_on_char ':' sql with
  | "ok" :: _ -> ok_result ()
  | "sleep" :: d :: _ ->
    csleep cancel (float_of_string d);
    ok_result ()
  | "transient" :: k :: _ ->
    if n <= int_of_string k then QE.raise_error (QE.Trap "injected fault (scripted)")
    else ok_result ()
  | "crashed" :: _ ->
    QE.raise_error (QE.Worker_crashed { domain = "pool.worker-0"; detail = "scripted" })
  | _ -> ok_result ()

(* a 1-thread pool: its one worker serves every ticket, so serving is
   serialized *)
let with_sched ?(config = Sched.default_config) h f =
  let pool = Aeq_exec.Pool.create ~n_threads:1 () in
  let s = Sched.create ~config ~pool ~exec:(harness_exec h) () in
  Fun.protect
    ~finally:(fun () ->
      Sched.shutdown s;
      Aeq_exec.Pool.shutdown pool)
    (fun () -> f s pool)

let served h =
  Mutex.lock h.h_lock;
  let l = List.rev h.h_served in
  Mutex.unlock h.h_lock;
  l

let check_ok name = function
  | Ok r -> Alcotest.(check bool) name true (r.Driver.rows = [ [| 42L |] ])
  | Error e -> Alcotest.failf "%s: unexpected error %s" name (QE.to_string e)

let check_rejected name = function
  | Ok _ -> Alcotest.failf "%s: expected Rejected, got rows" name
  | Error (QE.Rejected _) -> ()
  | Error e -> Alcotest.failf "%s: expected Rejected, got %s" name (QE.to_string e)

(* ---- probabilistic failpoints (satellite) ---------------------------- *)

(* synthetic sites: the catalog rejects unknown names *)
let () =
  List.iter FP.register_site [ "p.never"; "p.always"; "p.half"; "p.rep"; "a"; "b"; "x" ]

let test_prob_failpoints () =
  with_clean_failpoints (fun () ->
      FP.set_seed 7L;
      FP.activate "p.never" (FP.Prob_fail 0.0);
      for _ = 1 to 50 do
        FP.hit "p.never"
      done;
      Alcotest.(check int) "p=0 never fires" 0 (FP.fired "p.never");
      FP.activate "p.always" (FP.Prob_fail 1.0);
      for _ = 1 to 50 do
        match FP.hit "p.always" with
        | () -> Alcotest.fail "p=1 must always fire"
        | exception FP.Injected _ -> ()
      done;
      Alcotest.(check int) "p=1 always fires" 50 (FP.fired "p.always");
      FP.activate "p.half" (FP.Prob_fail 0.5);
      let fired = ref 0 in
      for _ = 1 to 200 do
        match FP.hit "p.half" with () -> () | exception FP.Injected _ -> incr fired
      done;
      Alcotest.(check bool)
        (Printf.sprintf "p=0.5 fired %d/200" !fired)
        true
        (!fired > 50 && !fired < 150);
      (* same seed, same draws *)
      FP.set_seed 7L;
      FP.activate "p.rep" (FP.Prob_fail 0.5);
      let first = ref [] in
      for _ = 1 to 20 do
        first := (match FP.hit "p.rep" with () -> false | exception FP.Injected _ -> true) :: !first
      done;
      FP.set_seed 7L;
      let again = ref [] in
      for _ = 1 to 20 do
        again := (match FP.hit "p.rep" with () -> false | exception FP.Injected _ -> true) :: !again
      done;
      Alcotest.(check bool) "seeded draws reproducible" true (!first = !again))

let test_prob_failpoints_parse () =
  with_clean_failpoints (fun () ->
      FP.set_from_string "a=p:0.0, b=p:1.0";
      FP.hit "a";
      (match FP.hit "b" with
      | () -> Alcotest.fail "b=p:1.0 must fire"
      | exception FP.Injected _ -> ());
      List.iter
        (fun bad ->
          match FP.set_from_string bad with
          | () -> Alcotest.failf "accepted %S" bad
          | exception Invalid_argument _ -> ())
        [ "x=p:1.5"; "x=p:-0.1"; "x=p:huge" ];
      match FP.activate "x" (FP.Prob_fail 2.0) with
      | () -> Alcotest.fail "activate must validate the probability"
      | exception Invalid_argument _ -> ())

(* ---- basic serving --------------------------------------------------- *)

let test_submit_await () =
  let h = make_harness () in
  with_sched h (fun s pool ->
      let tk = Sched.submit s "ok:basic" in
      check_ok "basic outcome" (Sched.await tk);
      Alcotest.(check bool) "waited >= 0" true (Sched.wait_seconds tk >= 0.0);
      Alcotest.(check bool) "not degraded" false (Sched.was_degraded tk);
      check_ok "submit + await" (Sched.await (Sched.submit s "ok:run"));
      let st = Sched.stats s in
      Alcotest.(check int) "admitted" 2 st.Sched.admitted;
      Alcotest.(check int) "completed" 2 st.Sched.completed;
      Alcotest.(check int) "failed" 0 st.Sched.failed;
      Alcotest.(check int) "the scheduler started the pool's one worker" 1
        (List.length (Aeq_exec.Pool.supervisors pool)))

let test_priority_order () =
  let h = make_harness () in
  with_sched h (fun s _ ->
      let blocker = Sched.submit s "sleep:0.2" in
      Unix.sleepf 0.05 (* the blocker is now running, the queue is free *);
      let low = Sched.submit ~priority:Sched.Low s "ok:low" in
      let high = Sched.submit ~priority:Sched.High s "ok:high" in
      check_ok "high" (Sched.await high);
      check_ok "low" (Sched.await low);
      check_ok "blocker" (Sched.await blocker);
      Alcotest.(check (list string)) "high dispatched before low"
        [ "sleep:0.2"; "ok:high"; "ok:low" ]
        (served h))

let test_overload_reject_and_shed () =
  let h = make_harness () in
  let config = { Sched.default_config with Sched.queue_capacity = 2 } in
  with_sched ~config h (fun s _ ->
      let blocker = Sched.submit s "sleep:0.3" in
      Unix.sleepf 0.05;
      let n1 = Sched.submit s "ok:n1" in
      let n2 = Sched.submit s "ok:n2" in
      (* full queue + equal priority: fail fast, in bounded time *)
      let t0 = Clock.now () in
      (match Sched.poll (Sched.submit s "ok:n3") with
      | Some (Error (QE.Overloaded { queue_depth; capacity })) ->
        Alcotest.(check int) "capacity echoed" 2 capacity;
        Alcotest.(check int) "depth echoed" 2 queue_depth
      | Some (Error e) -> Alcotest.failf "expected Overloaded, got %s" (QE.to_string e)
      | Some (Ok _) -> Alcotest.fail "expected Overloaded, got rows"
      | None -> Alcotest.fail "the refusal must answer as soon as submit returns");
      Alcotest.(check bool) "rejection is immediate" true (Clock.now () -. t0 < 0.1);
      (* a higher-priority submission sheds the oldest Normal instead *)
      let hi = Sched.submit ~priority:Sched.High s "ok:hi" in
      check_rejected "n1 was shed" (Sched.await n1);
      check_ok "hi served" (Sched.await hi);
      check_ok "n2 served" (Sched.await n2);
      check_ok "blocker served" (Sched.await blocker);
      (* Low never sheds anything *)
      let b2 = Sched.submit s "sleep:0.3" in
      Unix.sleepf 0.05;
      let q1 = Sched.submit s "ok:q1" in
      let q2 = Sched.submit s "ok:q2" in
      (match Sched.poll (Sched.submit ~priority:Sched.Low s "ok:lo") with
      | Some (Error (QE.Overloaded _)) -> ()
      | _ -> Alcotest.fail "low must not shed normal: expected an immediate Overloaded");
      check_ok "q1" (Sched.await q1);
      check_ok "q2" (Sched.await q2);
      check_ok "b2" (Sched.await b2);
      let st = Sched.stats s in
      Alcotest.(check int) "one shed" 1 st.Sched.shed;
      Alcotest.(check int) "two rejected" 2 st.Sched.rejected;
      Alcotest.(check int) "max depth bounded" 2 st.Sched.max_queue_depth)

let test_overload_degrades_to_bytecode () =
  let h = make_harness () in
  let config = { Sched.default_config with Sched.shed_queue_depth = 0 } in
  with_sched ~config h (fun s _ ->
      let blocker = Sched.submit s "sleep:0.2" in
      Unix.sleepf 0.05;
      let a1 = Sched.submit s "ok:a1" in
      let a2 = Sched.submit s "ok:a2" in
      check_ok "a1" (Sched.await a1);
      check_ok "a2" (Sched.await a2);
      check_ok "blocker" (Sched.await blocker);
      (* a1 was dispatched while a2 still queued (depth 1 > 0): degraded;
         a2 went out with an empty queue: full service *)
      Alcotest.(check bool) "a1 degraded" true (Sched.was_degraded a1);
      Alcotest.(check bool) "a2 not degraded" false (Sched.was_degraded a2);
      Alcotest.(check int) "degraded counted" 1 (Sched.stats s).Sched.degraded)

(* ---- one answer per query ------------------------------------------ *)

let executions h sql =
  Mutex.lock h.h_lock;
  let n = Option.value (Hashtbl.find_opt h.h_counts sql) ~default:0 in
  Mutex.unlock h.h_lock;
  n

(* a failure is the answer: the injected-fault trap and the crashed
   pool worker each come back after exactly one execution *)
let test_single_execution () =
  let h = make_harness () in
  with_sched h (fun s _ ->
      (match Sched.await (Sched.submit s "transient:1:a") with
      | Error (QE.Trap _) -> ()
      | Ok _ -> Alcotest.fail "the trap must be the answer, not a rerun's rows"
      | Error e -> Alcotest.failf "expected Trap, got %s" (QE.to_string e));
      Alcotest.(check int) "trap: one execution" 1 (executions h "transient:1:a");
      (match Sched.await (Sched.submit s "crashed:b") with
      | Error (QE.Worker_crashed _) -> ()
      | Ok _ -> Alcotest.fail "the crash must be the answer"
      | Error e -> Alcotest.failf "expected Worker_crashed, got %s" (QE.to_string e));
      Alcotest.(check int) "crash: one execution" 1 (executions h "crashed:b");
      Alcotest.(check int) "both failed" 2 (Sched.stats s).Sched.failed)

(* ---- deadlines -------------------------------------------------------- *)

(* the deadline rides in the ticket's token: the running query stops at
   its first guard check past it, with no grace period *)
let test_deadline_cancel () =
  let h = make_harness () in
  with_sched h (fun s _ ->
      let t0 = Clock.now () in
      let tk = Sched.submit ~deadline_seconds:0.05 s "sleep:5" in
      (match Sched.await tk with
      | Error (QE.Timeout allowance) ->
        Alcotest.(check (float 1e-9)) "allowance echoed" 0.05 allowance
      | Ok _ -> Alcotest.fail "must time out"
      | Error e -> Alcotest.failf "expected Timeout, got %s" (QE.to_string e));
      Alcotest.(check bool) "cancelled promptly, not after 5 s" true
        (Clock.now () -. t0 < 0.2);
      Alcotest.(check int) "failed" 1 (Sched.stats s).Sched.failed)

let test_deadline_expires_in_queue () =
  let h = make_harness () in
  with_sched h (fun s _ ->
      let blocker = Sched.submit s "sleep:0.3" in
      Unix.sleepf 0.05;
      let tk = Sched.submit ~deadline_seconds:0.05 s "ok:late" in
      check_rejected "expired in queue" (Sched.await tk);
      check_ok "blocker unaffected" (Sched.await blocker);
      Alcotest.(check int) "expired counted" 1 (Sched.stats s).Sched.expired;
      (* the expired ticket never reached the fake core *)
      Alcotest.(check bool) "never executed" true
        (not (List.mem "ok:late" (served h))))

(* no timer expires queued tickets: a polling client is answered at its
   deadline, and submit clears overdue tickets before judging room *)
let test_expiry_without_timer () =
  let h = make_harness () in
  let config = { Sched.default_config with Sched.queue_capacity = 1 } in
  with_sched ~config h (fun s _ ->
      let blocker = Sched.submit s "sleep:0.5" in
      Unix.sleepf 0.05 (* the blocker is now running, the queue is free *);
      let t0 = Clock.now () in
      let polled = Sched.submit ~deadline_seconds:0.05 s "ok:polled" in
      let rec poll_loop () =
        match Sched.poll polled with
        | Some outcome -> outcome
        | None ->
          if Clock.now () -. t0 > 5.0 then Alcotest.fail "poll never answered";
          Unix.sleepf 0.002;
          poll_loop ()
      in
      check_rejected "expired while polled" (poll_loop ());
      Alcotest.(check bool) "answered within 0.2 s" true (Clock.now () -. t0 < 0.2);
      let overdue = Sched.submit ~deadline_seconds:0.02 s "ok:overdue" in
      Unix.sleepf 0.05;
      let next = Sched.submit s "ok:next" in
      (match Sched.poll next with
      | Some (Error (QE.Overloaded _)) ->
        Alcotest.fail "an overdue queued ticket made submit answer Overloaded"
      | _ -> ());
      check_rejected "overdue expired" (Sched.await overdue);
      check_ok "next served" (Sched.await next);
      check_ok "blocker" (Sched.await blocker);
      Alcotest.(check bool) "expired tickets never reached the core" true
        (not (List.mem "ok:polled" (served h) || List.mem "ok:overdue" (served h)));
      Alcotest.(check int) "both counted expired" 2 (Sched.stats s).Sched.expired)

let test_client_cancel_queued () =
  let h = make_harness () in
  with_sched h (fun s _ ->
      let blocker = Sched.submit s "sleep:0.2" in
      Unix.sleepf 0.05;
      let tk = Sched.submit s "sleep:0.2" in
      Sched.cancel tk;
      (match Sched.await tk with
      | Error QE.Cancelled -> ()
      | Ok _ -> Alcotest.fail "cancelled ticket must not produce rows"
      | Error e -> Alcotest.failf "expected Cancelled, got %s" (QE.to_string e));
      check_ok "blocker" (Sched.await blocker))

(* ---- shutdown -------------------------------------------------------- *)

let test_shutdown_drains () =
  let h = make_harness () in
  let pool = Aeq_exec.Pool.create ~n_threads:1 () in
  let s = Sched.create ~pool ~exec:(harness_exec h) () in
  let blocker = Sched.submit s "sleep:0.15" in
  Unix.sleepf 0.05;
  let q1 = Sched.submit s "ok:s1" in
  let q2 = Sched.submit s "ok:s2" in
  Sched.shutdown s;
  Sched.shutdown s (* idempotent *);
  check_ok "in-flight query finished" (Sched.await blocker);
  check_rejected "queued q1 drained" (Sched.await q1);
  check_rejected "queued q2 drained" (Sched.await q2);
  (match Sched.poll (Sched.submit s "ok:late") with
  | Some (Error (QE.Rejected _)) -> ()
  | _ -> Alcotest.fail "submit after shutdown must answer Rejected at once");
  Aeq_exec.Pool.shutdown pool

(* ---- engine integration ---------------------------------------------- *)

let with_engine ?(n_threads = 2) ?(cost_model = CM.off) ?(sf = 0.005) f =
  let engine = Aeq.Engine.create ~n_threads ~cost_model () in
  Aeq.Engine.load_tpch engine ~scale_factor:sf;
  Fun.protect ~finally:(fun () -> Aeq.Engine.close engine) (fun () -> f engine)

let soak_statements =
  [
    Aeq_workload.Queries.tpch_q 1;
    Aeq_workload.Queries.tpch_q 6;
    "select count(*) as n from lineitem";
  ]

(* satellite: the plan cache and its counters are now mutex-guarded —
   hammer prepare/query from several domains at once *)
let test_engine_concurrent_cache () =
  with_engine (fun engine ->
      let stmts = Array.of_list soak_statements in
      let reference = Array.map (fun sql -> (Aeq.Engine.query engine sql).Driver.rows) stmts in
      let errors = Atomic.make 0 in
      let worker d () =
        for i = 0 to 9 do
          let k = (d + i) mod Array.length stmts in
          if i mod 3 = 0 then Aeq.Engine.prepare engine stmts.(k)
          else
            match Aeq.Engine.query engine stmts.(k) with
            | r -> if r.Driver.rows <> reference.(k) then Atomic.incr errors
            | exception _ -> Atomic.incr errors
        done
      in
      let domains = List.init 4 (fun d -> Domain.spawn (worker d)) in
      List.iter Domain.join domains;
      Alcotest.(check int) "all concurrent queries correct" 0 (Atomic.get errors);
      let cs = Aeq.Engine.cache_stats engine in
      Alcotest.(check int) "cache holds the three statements" 3 cs.Aeq.Engine.entries;
      Alcotest.(check bool) "hits counted without tearing" true
        (cs.Aeq.Engine.hits >= 20))

let test_engine_scheduler_deadline () =
  with_engine (fun engine ->
      Aeq.Engine.set_scheduler_config engine Sched.default_config;
      with_clean_failpoints (fun () ->
          FP.activate "driver.morsel" (FP.Delay 0.005);
          match
            Sched.await
              (Aeq.Engine.submit engine ~mode:Driver.Bytecode ~deadline_seconds:0.05
                 "select sum(l_quantity) as s from lineitem")
          with
          | Error (QE.Timeout allowance) ->
            Alcotest.(check (float 1e-9)) "allowance echoed" 0.05 allowance
          | Ok _ -> Alcotest.fail "must time out"
          | Error e -> Alcotest.failf "expected Timeout, got %s" (QE.to_string e));
      Alcotest.(check int) "the timeout counted as failed" 1
        (Aeq.Engine.scheduler_stats engine).Sched.failed;
      (* the engine serves correct answers afterwards *)
      match Sched.await (Aeq.Engine.submit engine "select count(*) as n from lineitem") with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "clean query after timeout: %s" (QE.to_string e))

(* the acceptance scenario: concurrent clients, probabilistic faults on
   the compile and morsel paths; no hangs, no leaks, every response is
   correct rows or a structured error; and with the compile path hard
   down, fresh statements still answer correctly from bytecode *)
let test_chaos_soak () =
  with_engine ~cost_model:eager_model (fun engine ->
      Aeq.Engine.set_scheduler_config engine
        {
          Sched.default_config with
          Sched.queue_capacity = 32;
          shed_queue_depth = 24;
        };
      let stmts = Array.of_list soak_statements in
      let reference = Array.map (fun sql -> (Aeq.Engine.query engine sql).Driver.rows) stmts in
      let arena = Aeq_storage.Catalog.arena (Aeq.Engine.catalog engine) in
      let chunks_baseline = Aeq_mem.Arena.live_chunks arena in
      with_clean_failpoints (fun () ->
          FP.set_seed 0xC4A05L;
          FP.activate "compile.unopt" (FP.Prob_fail 0.3);
          FP.activate "compile.opt" (FP.Prob_fail 0.3);
          FP.activate "driver.morsel" (FP.Prob_fail 0.005);
          let wrong = Atomic.make 0 and errs = Atomic.make 0 in
          let client c () =
            for i = 0 to 11 do
              let k = (c + i) mod Array.length stmts in
              match Sched.await (Aeq.Engine.submit engine stmts.(k)) with
              | Ok r -> if r.Driver.rows <> reference.(k) then Atomic.incr wrong
              | Error (QE.Trap _ | QE.Compile_failed _ | QE.Overloaded _ | QE.Rejected _) ->
                Atomic.incr errs
              | Error e ->
                Alcotest.failf "unexpected error class under chaos: %s" (QE.to_string e)
            done
          in
          let domains = List.init 8 (fun c -> Domain.spawn (client c)) in
          List.iter Domain.join domains;
          Alcotest.(check int) "every Ok response had correct rows" 0 (Atomic.get wrong);
          Alcotest.(check int) "no arena chunk leak across 96 chaotic queries"
            chunks_baseline
            (Aeq_mem.Arena.live_chunks arena);
          let st = Aeq.Engine.scheduler_stats engine in
          Alcotest.(check int) "all submissions accounted for"
            (8 * 12)
            (st.Sched.completed + st.Sched.failed + st.Sched.rejected
            + st.Sched.shed + st.Sched.expired));
      (* compile path hard down: each fresh statement (fresh text = a
         new handle, nothing blacklisted yet) fails its compile,
         blacklists the mode and keeps answering from bytecode *)
      let sum_reference =
        (Aeq.Engine.query engine "select sum(l_quantity) as s from lineitem").Driver.rows
      in
      with_clean_failpoints (fun () ->
          FP.activate "compile.unopt" FP.Fail;
          FP.activate "compile.opt" FP.Fail;
          let compile_failures = ref 0 in
          for i = 1 to 8 do
            let sql =
              Printf.sprintf
                "select sum(l_quantity) as s from lineitem where l_orderkey > %d" (-i)
            in
            match Sched.await (Aeq.Engine.submit engine sql) with
            | Ok r ->
              Alcotest.(check bool)
                (Printf.sprintf "fresh statement %d: reference rows" i)
                true
                (r.Driver.rows = sum_reference);
              compile_failures :=
                !compile_failures + r.Driver.stats.Driver.compile_failures
            | Error e ->
              Alcotest.failf "fresh statement %d with compile down: %s" i
                (QE.to_string e)
          done;
          Alcotest.(check bool) "compile failures degraded per statement" true
            (!compile_failures >= 1));
      match Sched.await (Aeq.Engine.submit engine "select count(*) as n from lineitem") with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "healthy after chaos: %s" (QE.to_string e))

let () =
  Alcotest.run "scheduler"
    [
      ( "failpoints",
        [
          Alcotest.test_case "probabilistic" `Quick test_prob_failpoints;
          Alcotest.test_case "probabilistic parse" `Quick test_prob_failpoints_parse;
        ] );
      ( "admission",
        [
          Alcotest.test_case "submit/await" `Quick test_submit_await;
          Alcotest.test_case "priority order" `Quick test_priority_order;
          Alcotest.test_case "reject and shed" `Quick test_overload_reject_and_shed;
          Alcotest.test_case "overload degrades" `Quick test_overload_degrades_to_bytecode;
        ] );
      ( "outcome",
        [ Alcotest.test_case "single execution" `Quick test_single_execution ] );
      ( "deadlines",
        [
          Alcotest.test_case "deadline cancel" `Quick test_deadline_cancel;
          Alcotest.test_case "queue expiry" `Quick test_deadline_expires_in_queue;
          Alcotest.test_case "expiry without a timer" `Quick test_expiry_without_timer;
          Alcotest.test_case "client cancel" `Quick test_client_cancel_queued;
        ] );
      ( "lifecycle",
        [ Alcotest.test_case "shutdown drains" `Quick test_shutdown_drains ] );
      ( "engine",
        [
          Alcotest.test_case "concurrent plan cache" `Quick test_engine_concurrent_cache;
          Alcotest.test_case "scheduler deadline" `Quick test_engine_scheduler_deadline;
          Alcotest.test_case "chaos soak" `Slow test_chaos_soak;
        ] );
    ]
