(* Tests for the execution framework: worker pool, progress tracking,
   the Fig. 7 extrapolation model, morsel accounting across mode
   switches ("no work lost"), and the plan-cache mode memory. *)

module CM = Aeq_backend.Cost_model
module Driver = Aeq_exec.Driver

(* ---- pool --------------------------------------------------------- *)

(* The pool is cooperative: workers join an open job while the caller
   (tid 0) is still running it. To assert that every tid participates
   we gate the job body on a barrier — no participant can leave until
   all [n] have joined, so all [n] must join. *)
let barrier n =
  let arrived = Atomic.make 0 in
  fun () ->
    Atomic.incr arrived;
    while Atomic.get arrived < n do
      Domain.cpu_relax ()
    done

let test_pool_runs_all_tids () =
  let pool = Aeq_exec.Pool.create ~n_threads:4 () in
  let seen = Array.make 4 0 in
  for _ = 1 to 2 do
    let gate = barrier 4 in
    Aeq_exec.Pool.run pool (fun ~tid ->
        gate ();
        seen.(tid) <- seen.(tid) + 1)
  done;
  Alcotest.(check (array int)) "each tid ran twice" [| 2; 2; 2; 2 |] seen;
  Aeq_exec.Pool.shutdown pool

let test_pool_propagates_exceptions () =
  let pool = Aeq_exec.Pool.create ~n_threads:3 () in
  let gate = barrier 3 in
  (match
     Aeq_exec.Pool.run pool (fun ~tid ->
         gate ();
         if tid = 2 then failwith "boom")
   with
  | () -> Alcotest.fail "expected exception"
  | exception Failure m -> Alcotest.(check string) "message" "boom" m);
  (* pool remains usable afterwards *)
  let count = Atomic.make 0 in
  let gate = barrier 3 in
  Aeq_exec.Pool.run pool (fun ~tid ->
      ignore tid;
      gate ();
      Atomic.incr count);
  Alcotest.(check int) "usable after error" 3 (Atomic.get count);
  Aeq_exec.Pool.shutdown pool

(* a raise the backtrace can name: not inlined into the job, and the
   raise itself rather than a tail call to [failwith] *)
let[@inline never] helper_side_raise () = raise (Failure "helper-boom")

(* A helper's exception reaches the caller with the helper's own
   backtrace, not one that starts at the caller's re-raise. *)
let test_pool_helper_backtrace () =
  let recording = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  let pool = Aeq_exec.Pool.create ~n_threads:2 () in
  let gate = barrier 2 in
  (match
     Aeq_exec.Pool.run pool (fun ~tid ->
         (* the flag is per domain *)
         Printexc.record_backtrace true;
         gate ();
         if tid = 1 then helper_side_raise ())
   with
  | () -> Alcotest.fail "expected exception"
  | exception Failure m ->
    let bt = Printexc.get_backtrace () in
    Alcotest.(check string) "message" "helper-boom" m;
    let names s sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    if not (names bt "helper_side_raise") then
      Alcotest.failf "the backtrace does not name the helper-side raise:\n%s" bt);
  Printexc.record_backtrace recording;
  Aeq_exec.Pool.shutdown pool

let test_pool_main_thread_exception () =
  (* thread 0 is the caller: its exception must propagate like any
     worker's, and the pool must survive *)
  let pool = Aeq_exec.Pool.create ~n_threads:3 () in
  (match Aeq_exec.Pool.run pool (fun ~tid -> if tid = 0 then failwith "main-boom") with
  | () -> Alcotest.fail "expected exception"
  | exception Failure m -> Alcotest.(check string) "message" "main-boom" m);
  let count = Atomic.make 0 in
  let gate = barrier 3 in
  Aeq_exec.Pool.run pool (fun ~tid ->
      ignore tid;
      gate ();
      Atomic.incr count);
  Alcotest.(check int) "usable after error" 3 (Atomic.get count);
  Aeq_exec.Pool.shutdown pool

let test_pool_single_thread_inline () =
  let pool = Aeq_exec.Pool.create ~n_threads:1 () in
  let ran = ref false in
  Aeq_exec.Pool.run pool (fun ~tid ->
      Alcotest.(check int) "tid 0" 0 tid;
      ran := true);
  Alcotest.(check bool) "ran" true !ran;
  Aeq_exec.Pool.shutdown pool

let test_pool_concurrent_jobs () =
  (* multi-tenancy: two jobs submitted from two domains overlap in
     time and both complete with their own work intact; a failure in
     one job stays in that job *)
  let pool = Aeq_exec.Pool.create ~n_threads:4 () in
  let a_total = Atomic.make 0 and b_total = Atomic.make 0 in
  let submit total fail_this =
    Domain.spawn (fun () ->
        match
          Aeq_exec.Pool.run pool (fun ~tid ->
              ignore tid;
              for _ = 1 to 1000 do
                Atomic.incr total
              done;
              if fail_this then failwith "job-b-boom")
        with
        | () -> `Ok
        | exception Failure m -> `Failed m)
  in
  let da = submit a_total false and db = submit b_total true in
  (match Domain.join da with
  | `Ok -> ()
  | `Failed m -> Alcotest.failf "job A caught job B's error: %s" m);
  (match Domain.join db with
  | `Failed "job-b-boom" -> ()
  | `Failed m -> Alcotest.failf "wrong error: %s" m
  | `Ok -> Alcotest.fail "job B should have failed");
  (* every participant of job A did its full work *)
  Alcotest.(check int) "job A work multiple of 1000" 0 (Atomic.get a_total mod 1000);
  Alcotest.(check bool) "job A ran at least once" true (Atomic.get a_total >= 1000);
  Alcotest.(check int) "no jobs left in flight" 0 (Aeq_exec.Pool.active_jobs pool);
  Aeq_exec.Pool.shutdown pool

(* ---- progress ------------------------------------------------------ *)

let test_progress_rates () =
  let p = Aeq_exec.Progress.create ~total_rows:1000 ~n_threads:2 in
  Alcotest.(check int) "remaining" 1000 (Aeq_exec.Progress.remaining p);
  Aeq_exec.Progress.note_morsel p ~tid:0 ~epoch:0 ~rows:100 ~ns:10_000_000;
  Aeq_exec.Progress.note_morsel p ~tid:1 ~epoch:0 ~rows:300 ~ns:10_000_000;
  Alcotest.(check int) "processed" 400 (Aeq_exec.Progress.processed p);
  Alcotest.(check int) "remaining" 600 (Aeq_exec.Progress.remaining p);
  (* rates: 10k/s and 30k/s -> avg 20k/s *)
  Alcotest.(check int) "avg rate" 20000 (Aeq_exec.Progress.avg_rate p);
  Aeq_exec.Progress.switch p;
  Alcotest.(check int) "rates reset" 0 (Aeq_exec.Progress.avg_rate p)

(* ---- the speedup estimate ------------------------------------------- *)

module Cal = Aeq_backend.Calibration
module Pr = Aeq_exec.Progress

let speedups = Alcotest.testable (fun f (s : Cal.t) ->
    Format.fprintf f "{unopt %g; opt %g}" s.Cal.speedup_unopt s.Cal.speedup_opt) ( = )

(* A fresh engine prices with its model's seeds, whatever another
   estimate in the process learned. *)
let test_estimate_seeds () =
  let other = Cal.estimate CM.off in
  Cal.observe other ~from:CM.Bytecode ~to_:CM.Unopt ~ratio:3.0;
  Cal.observe other ~from:CM.Bytecode ~to_:CM.Opt ~ratio:3.0;
  let e = Aeq.Engine.create ~n_threads:1 ~cost_model:CM.off () in
  Alcotest.check speedups "seeds" { Cal.speedup_unopt = 1.25; speedup_opt = 1.40 }
    (Aeq.Engine.speedups e);
  Aeq.Engine.close e

(* A controller over one real pipeline, past its 1 ms warm-up, with
   the rates left for the caller to note. *)
let with_controller ~model ~estimate ~total_rows f =
  let e = Aeq.Engine.create ~n_threads:1 ~cost_model:CM.off () in
  Fun.protect
    ~finally:(fun () -> Aeq.Engine.close e)
    (fun () ->
      Aeq.Engine.load_tpch e ~scale_factor:0.001;
      let catalog = Aeq.Engine.catalog e in
      let p =
        Driver.prepare ~cost_model:model catalog
          (Aeq.Engine.plan e "select count(*) from lineitem")
          ~n_threads:1
      in
      let handle =
        Aeq_exec.Handle.bind (Driver.prepared_handles p).(0) ~cost_model:model
          ~symbols:(fun _ -> None)
          ~mem:(Aeq_storage.Catalog.arena catalog)
      in
      let progress = Pr.create ~total_rows ~n_threads:2 in
      let ctl = Aeq_exec.Adaptive.create ~model ~estimate ~handle ~progress ~n_threads:2 () in
      Unix.sleepf 0.002;
      f ~handle ~progress ctl)

(* One switch gives one sample: the first rate after it over the rate
   before it. A morsel that began before the switch ran in the old
   tier: its rows count, its rate is no sample. *)
let test_estimate_pair () =
  (* unopt compiles for free and opt never pays off *)
  let model = { CM.off with unopt_base = 0.0; unopt_per_instr = 0.0; opt_base = 1e9 } in
  let estimate = Cal.estimate model in
  with_controller ~model ~estimate ~total_rows:1_000_000 (fun ~handle ~progress ctl ->
      let decide () = ignore (Aeq_exec.Adaptive.maybe_decide ctl) in
      Pr.note_morsel progress ~tid:0 ~epoch:0 ~rows:100 ~ns:10_000_000;
      Pr.note_morsel progress ~tid:1 ~epoch:0 ~rows:100 ~ns:10_000_000;
      let in_flight = Pr.epoch progress in
      (match Aeq_exec.Adaptive.maybe_decide ctl with
      | Aeq_exec.Adaptive.Compile CM.Unopt -> ()
      | _ -> Alcotest.fail "a free unopt compile is taken");
      ignore (Aeq_exec.Handle.promote handle ~mode:CM.Unopt);
      Aeq_exec.Adaptive.finish_compile ctl;
      Pr.note_morsel progress ~tid:1 ~epoch:in_flight ~rows:300 ~ns:10_000_000;
      decide ();
      Alcotest.check speedups "an in-flight morsel is no sample" (Cal.current (Cal.estimate model))
        (Cal.current estimate);
      Alcotest.(check int) "its rows still count" 500 (Pr.processed progress);
      (* 10k rows/s in bytecode, then 15k in unopt *)
      Pr.note_morsel progress ~tid:0 ~epoch:(Pr.epoch progress) ~rows:150 ~ns:10_000_000;
      decide ();
      Alcotest.(check (float 1e-12))
        "unopt a quarter of the way to 1.5" 1.3125 (Cal.current estimate).Cal.speedup_unopt;
      Pr.note_morsel progress ~tid:1 ~epoch:(Pr.epoch progress) ~rows:300 ~ns:10_000_000;
      decide ();
      Alcotest.(check (float 1e-12))
        "one sample per switch" 1.3125 (Cal.current estimate).Cal.speedup_unopt;
      Alcotest.(check (float 0.0)) "opt untouched" 1.40 (Cal.current estimate).Cal.speedup_opt);
  (* an Unopt->Opt ratio is a speedup over unopt: 1.2 x 1.3125 *)
  Cal.observe estimate ~from:CM.Unopt ~to_:CM.Opt ~ratio:1.2;
  Alcotest.(check (float 1e-12))
    "opt a quarter of the way to 1.575" (1.40 +. (0.25 *. (1.575 -. 1.40)))
    (Cal.current estimate).Cal.speedup_opt

(* A variant an earlier execution cached switches in for free: the
   controller takes it where compiling it would never pay. *)
let test_cached_variant_is_free () =
  let model = { CM.off with unopt_base = 1e9; opt_base = 1e9 } in
  with_controller ~model ~estimate:(Cal.estimate model) ~total_rows:1_000_000
    (fun ~handle ~progress ctl ->
      Pr.note_morsel progress ~tid:0 ~epoch:0 ~rows:100 ~ns:10_000_000;
      (match Aeq_exec.Adaptive.maybe_decide ctl with
      | Aeq_exec.Adaptive.Do_nothing -> ()
      | Aeq_exec.Adaptive.Compile _ -> Alcotest.fail "a compile that takes 1e9 s is not taken");
      ignore (Aeq_exec.Handle.promote handle ~mode:CM.Unopt);
      let next =
        Aeq_exec.Handle.bind handle.Aeq_exec.Handle.c ~cost_model:model
          ~symbols:(fun _ -> None)
          ~mem:handle.Aeq_exec.Handle.mem
      in
      let ctl =
        Aeq_exec.Adaptive.create ~model ~estimate:(Cal.estimate model) ~handle:next ~progress
          ~n_threads:2 ()
      in
      Unix.sleepf 0.002;
      match Aeq_exec.Adaptive.maybe_decide ctl with
      | Aeq_exec.Adaptive.Compile CM.Unopt -> ()
      | _ -> Alcotest.fail "the cached unopt variant is taken")

(* A tier that ran slower than the one it replaced is priced at its
   floor, never below. *)
let test_estimate_floors () =
  let e = Cal.estimate CM.default in
  for _ = 1 to 200 do
    Cal.observe e ~from:CM.Bytecode ~to_:CM.Unopt ~ratio:0.5;
    Cal.observe e ~from:CM.Bytecode ~to_:CM.Opt ~ratio:0.5
  done;
  let s = Cal.current e in
  Alcotest.(check (float 1e-9)) "unopt floor" 1.01 s.Cal.speedup_unopt;
  Alcotest.(check (float 1e-9)) "opt floor" 1.02 s.Cal.speedup_opt

(* Real switches feed the engine's estimate: seeded far above what the
   closure tiers run at, it comes down. *)
let test_estimate_learns_from_switches () =
  let cost_model = CM.with_speedups CM.off ~unopt:50.0 ~opt:100.0 in
  let e = Aeq.Engine.create ~n_threads:2 ~cost_model () in
  Aeq.Engine.load_tpch e ~scale_factor:0.01;
  ignore (Aeq.Engine.query e ~mode:Driver.Adaptive "select sum(l_quantity) from lineitem");
  let s = Aeq.Engine.speedups e in
  Alcotest.(check bool)
    (Printf.sprintf "estimate {%g; %g} moved down from {50; 100}" s.Cal.speedup_unopt
       s.Cal.speedup_opt)
    true
    (s.Cal.speedup_unopt < 50.0 || s.Cal.speedup_opt < 100.0);
  Aeq.Engine.close e

(* ---- the Fig. 7 decision model -------------------------------------- *)

(* priced with the paper's speedups, so the worked numbers below hold
   whatever the engine's seeds are *)
let extrapolate ~current_mode ~remaining ~rate ~n_threads () =
  (Aeq_exec.Adaptive.evaluate
     ~speedups:{ Aeq_backend.Calibration.speedup_unopt = 3.6; speedup_opt = 5.0 }
     ~compile_unopt:(CM.compile_time CM.default CM.Unopt 1000)
     ~compile_opt:(CM.compile_time CM.default CM.Opt 1000)
     ~current_mode ~remaining ~rate ~n_threads ())
    .Aeq_exec.Adaptive.ev_decision

let test_decide_nothing_when_tiny () =
  (* 1000 remaining tuples at 1M/s: 1 ms of work left; compiling costs
     several ms -> keep interpreting *)
  match
    extrapolate ~current_mode:CM.Bytecode ~remaining:1_000 ~rate:1e6 ~n_threads:4 ()
  with
  | Aeq_exec.Adaptive.Do_nothing -> ()
  | Aeq_exec.Adaptive.Compile _ -> Alcotest.fail "should not compile a tiny remainder"

let test_decide_compile_when_huge () =
  (* 100M remaining tuples at 1M/s: 100 s of work -> optimized pays *)
  match
    extrapolate ~current_mode:CM.Bytecode ~remaining:100_000_000 ~rate:1e6 ~n_threads:4 ()
  with
  | Aeq_exec.Adaptive.Compile CM.Opt -> ()
  | Aeq_exec.Adaptive.Compile (CM.Unopt | CM.Bytecode) ->
    Alcotest.fail "expected optimized for huge work"
  | Aeq_exec.Adaptive.Do_nothing -> Alcotest.fail "must compile 100s of work"

let test_decide_unopt_in_between () =
  (* medium-sized remainder: unoptimized should win over both *)
  let d = extrapolate ~current_mode:CM.Bytecode ~remaining:400_000 ~rate:1e6 ~n_threads:4 () in
  match d with
  | Aeq_exec.Adaptive.Compile CM.Unopt -> ()
  | Aeq_exec.Adaptive.Compile (CM.Opt | CM.Bytecode) ->
    Alcotest.fail "opt too aggressive here"
  | Aeq_exec.Adaptive.Do_nothing -> Alcotest.fail "should compile medium remainder"

let test_decide_never_downgrades () =
  (match extrapolate ~current_mode:CM.Opt ~remaining:100_000_000 ~rate:1e6 ~n_threads:4 () with
  | Aeq_exec.Adaptive.Do_nothing -> ()
  | _ -> Alcotest.fail "already optimal");
  match extrapolate ~current_mode:CM.Unopt ~remaining:1_000 ~rate:1e6 ~n_threads:4 () with
  | Aeq_exec.Adaptive.Do_nothing -> ()
  | _ -> Alcotest.fail "no upgrade for tiny remainder"

let test_decide_no_rate_no_decision () =
  match extrapolate ~current_mode:CM.Bytecode ~remaining:1_000_000 ~rate:0.0 ~n_threads:4 () with
  | Aeq_exec.Adaptive.Do_nothing -> ()
  | _ -> Alcotest.fail "cannot extrapolate without a rate"

(* Regression for the mis-extrapolation bug: the measured rate is in
   the *current* mode's units, so a candidate's speedup (stated vs
   bytecode) must be divided by the current mode's speedup. With the
   old formula the Unopt->Opt estimate used the full 5x instead of
   5/3.6 = 1.39x and upgraded near-finished pipelines. Numbers below
   (default model, 1000 instrs, 1 thread, 1M rows/s):
   opt compile = 75.5 ms; 120k rows remaining = 120 ms left.
   buggy estimate: 75.5 + 120/5      =  99.5 ms -> upgrade (wrong)
   fixed estimate: 75.5 + 120/1.389  = 161.9 ms -> keep Unopt *)

let test_relative_speedup_blocks_eager_upgrade () =
  match
    extrapolate ~current_mode:CM.Unopt ~remaining:120_000 ~rate:1e6 ~n_threads:1 ()
  with
  | Aeq_exec.Adaptive.Do_nothing -> ()
  | Aeq_exec.Adaptive.Compile _ ->
    Alcotest.fail
      "Unopt->Opt upgraded on the vs-bytecode speedup (5x) instead of the relative \
       gain (1.39x)"

let test_relative_speedup_still_upgrades_when_profitable () =
  (* 1M rows remaining = 1 s left; 75.5 + 1000/1.389 = 795 ms: the
     relative gain still pays for itself *)
  match
    extrapolate ~current_mode:CM.Unopt ~remaining:1_000_000 ~rate:1e6 ~n_threads:1 ()
  with
  | Aeq_exec.Adaptive.Compile CM.Opt -> ()
  | Aeq_exec.Adaptive.Compile (CM.Unopt | CM.Bytecode) -> Alcotest.fail "expected Opt"
  | Aeq_exec.Adaptive.Do_nothing ->
    Alcotest.fail "a genuinely profitable Unopt->Opt upgrade must still happen"

let test_monotone_in_remaining () =
  (* once compilation pays off, it keeps paying off for more work *)
  let compiled_at = ref None in
  List.iter
    (fun remaining ->
      match
        (extrapolate ~current_mode:CM.Bytecode ~remaining ~rate:1e6 ~n_threads:4 (),
         !compiled_at)
      with
      | Aeq_exec.Adaptive.Compile _, None -> compiled_at := Some remaining
      | Aeq_exec.Adaptive.Do_nothing, Some at ->
        Alcotest.failf "compiled at %d but not at %d" at remaining
      | _ -> ())
    [ 1_000; 10_000; 100_000; 1_000_000; 10_000_000; 100_000_000 ];
  Alcotest.(check bool) "compiles eventually" true (!compiled_at <> None)

(* ---- no lost work across mode switches ------------------------------ *)

let test_no_lost_work () =
  (* Count every processed row through a runtime-visible aggregate and
     force mode switches mid-pipeline via a cost model with absurdly
     fast compilation, so the controller upgrades eagerly. *)
  let eager =
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
  in
  let engine = Aeq.Engine.create ~n_threads:4 ~cost_model:eager () in
  Aeq.Engine.load_tpch engine ~scale_factor:0.01;
  let tbl = Aeq_storage.Catalog.table (Aeq.Engine.catalog engine) "lineitem" in
  let r =
    Aeq.Engine.query engine ~mode:Driver.Adaptive "select count(*) as n from lineitem"
  in
  (match r.Driver.rows with
  | [ [| n |] ] ->
    Alcotest.(check int64) "every row counted exactly once"
      (Int64.of_int tbl.Aeq_storage.Table.n_rows)
      n
  | _ -> Alcotest.fail "one row expected");
  (* the eager model must actually have switched modes *)
  Alcotest.(check bool) "a switch happened" true
    (List.exists (fun m -> m <> "bytecode") r.Driver.stats.Driver.final_modes);
  Aeq.Engine.close engine

(* ---- plan cache mode memory ----------------------------------------- *)

let test_plan_cache_promotion () =
  let eager =
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
  in
  let engine = Aeq.Engine.create ~n_threads:2 ~cost_model:eager () in
  Aeq.Engine.load_tpch engine ~scale_factor:0.01;
  let sql = "select sum(l_quantity) from lineitem" in
  let r1 = Aeq.Engine.query engine sql in
  Alcotest.(check int) "first execution" 1 (Aeq.Engine.cached_executions engine sql);
  let r2 = Aeq.Engine.query engine sql in
  Alcotest.(check int) "second execution" 2 (Aeq.Engine.cached_executions engine sql);
  Alcotest.(check bool) "same result" true (r1.Driver.rows = r2.Driver.rows);
  (* second run starts at least as compiled as the first ended *)
  let rank = function "bytecode" -> 0 | "unoptimized" -> 1 | _ -> 2 in
  List.iter2
    (fun m1 m2 ->
      Alcotest.(check bool) "mode memory kept" true (rank m2 >= rank m1))
    r1.Driver.stats.Driver.final_modes r2.Driver.stats.Driver.final_modes;
  Aeq.Engine.close engine

(* ---- prepared statements (compiled-artifact cache) ------------------ *)

let test_prepared_artifact_reuse () =
  let engine = Aeq.Engine.create ~n_threads:2 ~cost_model:CM.off () in
  Aeq.Engine.load_tpch engine ~scale_factor:0.005;
  let catalog = Aeq.Engine.catalog engine in
  let pool = Aeq.Engine.pool engine in
  let plan = Aeq.Engine.plan engine "select sum(l_quantity) from lineitem" in
  let p =
    Driver.prepare ~cost_model:CM.off catalog plan
      ~n_threads:(Aeq_exec.Pool.n_threads pool)
  in
  Alcotest.(check int) "unexecuted" 0 (Driver.prepared_executions p);
  let r1 = Driver.execute_prepared p ~mode:Driver.Opt ~pool in
  let r2 = Driver.execute_prepared p ~mode:Driver.Opt ~pool in
  Alcotest.(check int) "executed twice" 2 (Driver.prepared_executions p);
  Alcotest.(check bool) "same rows" true (r1.Driver.rows = r2.Driver.rows);
  Alcotest.(check bool) "cold run pays codegen" true
    (r1.Driver.stats.Driver.codegen_seconds > 0.0);
  Alcotest.(check bool) "cold run not flagged as reuse" false
    r1.Driver.stats.Driver.prepared_reuse;
  (* the compiled artifacts survived: nothing is rebuilt *)
  Alcotest.(check (float 0.0)) "no codegen on reuse" 0.0
    r2.Driver.stats.Driver.codegen_seconds;
  Alcotest.(check (float 0.0)) "no translation on reuse" 0.0
    r2.Driver.stats.Driver.bc_seconds;
  Alcotest.(check (float 0.0)) "no recompilation on reuse" 0.0
    r2.Driver.stats.Driver.compile_seconds;
  Alcotest.(check bool) "reuse flagged" true r2.Driver.stats.Driver.prepared_reuse;
  (* every pipeline is still in the statically-requested mode *)
  List.iter
    (fun m -> Alcotest.(check bool) "stays optimized" true (m = CM.Opt))
    (Driver.prepared_modes p);
  Aeq.Engine.close engine

let test_prepared_mode_switches () =
  (* the same prepared statement can serve every execution mode; a
     bytecode run after a compiled one must reinstall the interpreter *)
  let engine = Aeq.Engine.create ~n_threads:2 ~cost_model:CM.off () in
  Aeq.Engine.load_tpch engine ~scale_factor:0.002;
  let catalog = Aeq.Engine.catalog engine in
  let pool = Aeq.Engine.pool engine in
  let plan = Aeq.Engine.plan engine "select count(*) from orders" in
  let p =
    Driver.prepare ~cost_model:CM.off catalog plan
      ~n_threads:(Aeq_exec.Pool.n_threads pool)
  in
  let r_opt = Driver.execute_prepared p ~mode:Driver.Opt ~pool in
  let r_bc = Driver.execute_prepared p ~mode:Driver.Bytecode ~pool in
  let r_un = Driver.execute_prepared p ~mode:Driver.Unopt ~pool in
  Alcotest.(check bool) "opt = bytecode rows" true (r_opt.Driver.rows = r_bc.Driver.rows);
  Alcotest.(check bool) "unopt = bytecode rows" true (r_un.Driver.rows = r_bc.Driver.rows);
  List.iter
    (fun m -> Alcotest.(check string) "back to bytecode" "bytecode" m)
    r_bc.Driver.stats.Driver.final_modes;
  List.iter
    (fun m -> Alcotest.(check string) "unoptimized installed" "unoptimized" m)
    r_un.Driver.stats.Driver.final_modes;
  Aeq.Engine.close engine

(* ---- a prepared statement keeps bytecode and rebuilds its IR -------- *)

let rebuild_corpus =
  Aeq_workload.Queries.tpch @ Aeq_workload.Queries.metadata
  @ List.map (fun n -> (Printf.sprintf "fig15 %d" n, Aeq_workload.Queries.large_query n)) [ 50; 200; 800 ]

(* A program's plain-data parts ([rt_table] holds closures). *)
let bytecode_shape (bc : Aeq_vm.Bytecode.t) =
  ( (bc.Aeq_vm.Bytecode.code, bc.Aeq_vm.Bytecode.ext, bc.Aeq_vm.Bytecode.lits),
    bc.Aeq_vm.Bytecode.n_reg_bytes,
    bc.Aeq_vm.Bytecode.const_pool,
    bc.Aeq_vm.Bytecode.param_offsets,
    bc.Aeq_vm.Bytecode.messages,
    bc.Aeq_vm.Bytecode.src_instr_count )

let test_prepared_rebuilds_same_ir () =
  let engine = Aeq.Engine.create ~n_threads:1 ~cost_model:CM.off () in
  Aeq.Engine.load_tpch engine ~scale_factor:0.001;
  let catalog = Aeq.Engine.catalog engine in
  let symbols =
    Aeq_rt.Symbols.resolver
      (Aeq_rt.Context.create ~arena:(Aeq_storage.Catalog.arena catalog)
         ~dict:(Aeq_storage.Catalog.dict catalog) ~n_threads:1 ())
  in
  (* every statement is prepared before any IR is rebuilt, so a
     generator that depended on state left behind by later code
     generation would show *)
  let prepared =
    List.map
      (fun (name, sql) ->
        let plan = Aeq.Engine.plan engine sql in
        let at_prepare =
          List.map Pp.func_to_string
            (Aeq_codegen.Codegen.all_workers plan (Aeq_plan.Physical.layout plan))
        in
        (name, at_prepare, Driver.prepare ~cost_model:CM.off catalog plan ~n_threads:1))
      rebuild_corpus
  in
  List.iter
    (fun (name, at_prepare, p) ->
      let handles = Driver.prepared_handles p in
      Alcotest.(check int) (name ^ ": pipelines") (List.length at_prepare) (Array.length handles);
      List.iteri
        (fun i text ->
          let c = handles.(i) in
          let f = c.Aeq_exec.Handle.regenerate () in
          let what = Printf.sprintf "%s pipeline %d" name i in
          Alcotest.(check string) (what ^ ": same IR") text (Pp.func_to_string f);
          Alcotest.(check int) (what ^ ": same size") c.Aeq_exec.Handle.n_instrs (Func.n_instrs f);
          let bc, _ = Aeq_backend.Compiler.translate_bytecode ~cost_model:CM.off ~symbols f in
          Alcotest.(check bool) (what ^ ": translates to the cached bytecode") true
            (bytecode_shape bc = bytecode_shape c.Aeq_exec.Handle.bytecode))
        at_prepare)
    prepared;
  Aeq.Engine.close engine

let test_prepared_opt_from_rebuilt_ir () =
  (* a cached statement first runs interpreted; a later execution
     promotes every pipeline to Opt from IR rebuilt at that moment *)
  let engine = Aeq.Engine.create ~n_threads:2 ~cost_model:CM.off () in
  Aeq.Engine.load_tpch engine ~scale_factor:0.002;
  let catalog = Aeq.Engine.catalog engine in
  let pool = Aeq.Engine.pool engine in
  List.iter
    (fun (name, sql) ->
      let p =
        Driver.prepare ~cost_model:CM.off catalog (Aeq.Engine.plan engine sql)
          ~n_threads:(Aeq_exec.Pool.n_threads pool)
      in
      let r_bc = Driver.execute_prepared p ~mode:Driver.Bytecode ~pool in
      let r_opt = Driver.execute_prepared p ~mode:Driver.Opt ~pool in
      Alcotest.(check bool) (name ^ ": same bag of rows") true
        (List.sort compare r_bc.Driver.rows = List.sort compare r_opt.Driver.rows);
      List.iter
        (fun m -> Alcotest.(check string) (name ^ ": promoted") "optimized" m)
        r_opt.Driver.stats.Driver.final_modes;
      Alcotest.(check int) (name ^ ": no compile failure") 0
        r_opt.Driver.stats.Driver.compile_failures)
    (Aeq_workload.Queries.tpch @ Aeq_workload.Queries.metadata
    @ [ ("fig15 200", Aeq_workload.Queries.large_query 200) ]);
  Aeq.Engine.close engine

(* What the plan cache holds per giant statement: its plan, bytecode
   and handles, 0.88 MB. Holding the worker IR as well read about
   3.6 MB, and bytecode as an array of boxed instruction records
   1.69 MB. *)
let test_prepared_giant_retention () =
  let engine = Aeq.Engine.create ~n_threads:1 ~cost_model:CM.off () in
  Aeq.Engine.load_tpch engine ~scale_factor:0.001;
  let catalog = Aeq.Engine.catalog engine in
  let n = 4 in
  let live_bytes () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)
  in
  let before = live_bytes () in
  let cached =
    List.init n (fun _ ->
        Driver.prepare ~cost_model:CM.off catalog
          (Aeq.Engine.plan engine (Aeq_workload.Queries.large_query 800))
          ~n_threads:1)
  in
  let per_statement = float_of_int (live_bytes () - before) /. float_of_int n /. 1048576.0 in
  ignore (Sys.opaque_identity cached);
  if per_statement >= 1.25 then
    Alcotest.failf "each cached 800-aggregate statement holds %.2f MB of live heap (bound 1.25)"
      per_statement;
  Aeq.Engine.close engine

(* A cached statement keeps its bytecode as three unboxed int arrays:
   one word per instruction in each, plus the three array headers and
   the tuple measured here. *)
let test_prepared_bytecode_words () =
  let engine = Aeq.Engine.create ~n_threads:1 ~cost_model:CM.off () in
  Aeq.Engine.load_tpch engine ~scale_factor:0.001;
  let p =
    Driver.prepare ~cost_model:CM.off (Aeq.Engine.catalog engine)
      (Aeq.Engine.plan engine (Aeq_workload.Queries.large_query 800))
      ~n_threads:1
  in
  Array.iter
    (fun (c : Aeq_exec.Handle.compiled) ->
      let bc = c.Aeq_exec.Handle.bytecode in
      let n = Array.length bc.Aeq_vm.Bytecode.code in
      let words =
        Obj.reachable_words
          (Obj.repr (bc.Aeq_vm.Bytecode.code, bc.Aeq_vm.Bytecode.ext, bc.Aeq_vm.Bytecode.lits))
      in
      if words > (3 * n) + 8 then
        Alcotest.failf "%s: %d instructions take %d words (bound 3n + 8 = %d)"
          bc.Aeq_vm.Bytecode.name n words ((3 * n) + 8))
    (Driver.prepared_handles p);
  Aeq.Engine.close engine

(* ---- whole queries allocate per morsel, not per row ---------------- *)

let scanned_rows (plan : Aeq_plan.Physical.t) =
  List.fold_left
    (fun acc (p : Aeq_plan.Physical.pipeline) ->
      match p.Aeq_plan.Physical.p_source with
      | Aeq_plan.Physical.Src_scan { tref } ->
        acc + (fst plan.Aeq_plan.Physical.pl_trefs.(tref)).Aeq_storage.Table.n_rows
      | Aeq_plan.Physical.Src_agg_scan _ -> acc)
    0 plan.Aeq_plan.Physical.pl_pipelines

(* What a query may allocate besides its rows: a fixed part (context,
   bindings, the result and its sort), and a part per pipeline and per
   morsel (the job, the morsel's timing). Minor words. *)
let per_query_words = 4096.

let per_pipeline_words = 256.

let per_morsel_words = 32.

(* The 22 TPC-H queries at sf 0.01 on one thread, each tier: a tier
   allocates at most 0.1 minor words per scanned row over the suite,
   and each query no more than that per row plus its bookkeeping. At
   1 word per row a pool helper would still fill half its minor heap
   between two collections of the main domain's. *)
let test_tpch_words_per_row () =
  let engine = Aeq.Engine.create ~n_threads:1 ~cost_model:CM.off () in
  Aeq.Engine.load_tpch engine ~scale_factor:0.01;
  let catalog = Aeq.Engine.catalog engine in
  let pool = Aeq.Engine.pool engine in
  List.iter
    (fun (tier, mode) ->
      let words = ref 0. and rows = ref 0 in
      List.iter
        (fun (name, sql) ->
          let plan = Aeq.Engine.plan engine sql in
          let p = Driver.prepare ~cost_model:CM.off catalog plan ~n_threads:1 in
          (* the first run compiles and counts the morsels *)
          let r = Driver.execute_prepared ~collect_trace:true p ~mode ~pool in
          let morsels =
            match r.Driver.trace with
            | Some tr ->
              List.length
                (List.filter
                   (fun (e : Aeq_exec.Trace.event) ->
                     match e.Aeq_exec.Trace.kind with Aeq_exec.Trace.Ev_morsel _ -> true | _ -> false)
                   (Aeq_exec.Trace.events tr))
            | None -> 0
          in
          let w0 = Gc.minor_words () in
          ignore (Sys.opaque_identity (Driver.execute_prepared p ~mode ~pool));
          let w = Gc.minor_words () -. w0 in
          let n = scanned_rows plan in
          let pipelines = List.length plan.Aeq_plan.Physical.pl_pipelines in
          let bound =
            (0.1 *. float_of_int n) +. per_query_words
            +. (per_pipeline_words *. float_of_int pipelines)
            +. (per_morsel_words *. float_of_int morsels)
          in
          if w > bound then
            Alcotest.failf
              "%s in %s: %.0f minor words for %d rows, %d pipelines and %d morsels (bound %.0f)"
              name tier w n pipelines morsels bound;
          words := !words +. w;
          rows := !rows + n)
        Aeq_workload.Queries.tpch;
      let per_row = !words /. float_of_int !rows in
      if per_row > 0.1 then
        Alcotest.failf "%s: %.3f minor words per scanned row over the suite (bound 0.1)" tier
          per_row)
    [ ("bytecode", Driver.Bytecode); ("unopt", Driver.Unopt); ("opt", Driver.Opt) ];
  Aeq.Engine.close engine

(* The controller's check after every morsel reads the clock, the rate,
   the blacklists, the estimate and the modelled compile times, and
   allocates nothing doing so. *)
let test_decision_allocates_nothing () =
  Aeq_obs.Control.with_enabled false (fun () ->
      with_controller ~model:CM.default ~estimate:(Cal.estimate CM.default) ~total_rows:1_000
        (fun ~handle:_ ~progress ctl ->
          Pr.note_morsel progress ~tid:0 ~epoch:0 ~rows:500 ~ns:500_000;
          let decide () =
            match Aeq_exec.Adaptive.maybe_decide ctl with
            | Aeq_exec.Adaptive.Do_nothing -> ()
            | Aeq_exec.Adaptive.Compile _ -> Alcotest.fail "500 rows left must not compile"
          in
          decide ();
          let w0 = Gc.minor_words () in
          for _ = 1 to 1_000 do
            decide ()
          done;
          Alcotest.(check (float 0.0))
            "minor words over 1,000 decisions" 0.0
            (Gc.minor_words () -. w0)))

(* ---- sort and limit over arena rows -------------------------------- *)

(* The result rows as one digest, through the printed form. *)
let rows_digest catalog (dtypes : Aeq_storage.Dtype.t list) rows =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map
             (fun row -> String.concat "|" (Driver.row_to_strings catalog dtypes row))
             rows)))

(* Q13's shape at sf 0.03: ORDER BY ... LIMIT 50 over 4,497 grouped
   rows, which the driver sorts and limits as arena row pointers. Every
   mode returns the rows Volcano does, in its order; the digests are
   the answers of the engine that boxed every row before sorting. The
   second statement has ties on its only sort key: with one worker the
   rows come out in scan order, as Volcano's stable sort leaves them. *)
let test_order_by_limit_over_arena_rows () =
  let q13 =
    {|select c_custkey, count(*) as c_count
       from customer
       join orders on o_custkey = c_custkey
       where o_orderpriority <> '1-URGENT'
       group by c_custkey
       order by c_count desc, c_custkey
       limit 50|}
  in
  let ties = {|select c_nationkey, c_custkey from customer order by c_nationkey limit 50|} in
  List.iter
    (fun (n_threads, sql, digest) ->
      let engine = Aeq.Engine.create ~n_threads ~cost_model:CM.off () in
      Aeq.Engine.load_tpch engine ~scale_factor:0.03;
      let catalog = Aeq.Engine.catalog engine in
      let plan = Aeq.Engine.plan engine sql in
      let volcano = Aeq_baseline.Volcano.execute catalog plan in
      Alcotest.(check int) "Volcano returns 50 rows" 50 (List.length volcano);
      List.iter
        (fun mode ->
          let what = Printf.sprintf "%d thread(s), %s" n_threads (Driver.mode_name mode) in
          let r = Aeq.Engine.query engine ~mode sql in
          Alcotest.(check int) (what ^ ": rows_out") 50 r.Driver.stats.Driver.rows_out;
          Alcotest.(check bool) (what ^ ": Volcano's rows in Volcano's order") true
            (r.Driver.rows = volcano);
          Alcotest.(check string) (what ^ ": the pinned rows") digest
            (rows_digest catalog r.Driver.dtypes r.Driver.rows))
        [ Driver.Bytecode; Driver.Unopt; Driver.Opt; Driver.Adaptive ];
      Aeq.Engine.close engine)
    [
      (4, q13, "baa08c2f3a4beb9c62dc2050a735889b");
      (1, q13, "baa08c2f3a4beb9c62dc2050a735889b");
      (1, ties, "23e877ab3b2168e56341a081f3efe115");
    ]

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* A join table is linked at the barrier after its build pipeline: a
   plan whose probe pipeline runs first is refused before it runs, in
   every mode, and its lease goes back. *)
let test_probe_before_build_refused () =
  let engine = Aeq.Engine.create ~n_threads:2 ~cost_model:CM.off () in
  Aeq.Engine.load_tpch engine ~scale_factor:0.002;
  let catalog = Aeq.Engine.catalog engine in
  let arena = Aeq_storage.Catalog.arena catalog in
  let plan = Aeq.Engine.plan engine (Aeq_workload.Queries.tpch_q 4) in
  let module P = Aeq_plan.Physical in
  let builds, rest =
    List.partition
      (fun (p : P.pipeline) -> match p.P.p_sink with P.S_build _ -> true | _ -> false)
      plan.P.pl_pipelines
  in
  Alcotest.(check int) "Q4 builds one join table" 1 (List.length builds);
  let bad = { plan with P.pl_pipelines = rest @ builds } in
  List.iter
    (fun mode ->
      let pool = Aeq.Engine.pool engine in
      match Driver.execute ~cost_model:CM.off catalog bad ~mode ~pool with
      | _ -> Alcotest.fail "a probe before its build must be refused"
      | exception Aeq_exec.Query_error.Error (Aeq_exec.Query_error.Trap m) ->
        Alcotest.(check bool) ("names the probe: " ^ m) true
          (contains m "probes join table 0 before its build"))
    [ Driver.Bytecode; Driver.Adaptive ];
  Alcotest.(check int) "no lease left" 0 (Aeq_mem.Arena.live_leases arena);
  Aeq.Engine.close engine

let test_trace_render () =
  let tr = Aeq_exec.Trace.create () in
  let t0 = Aeq_exec.Trace.epoch tr in
  Aeq_exec.Trace.record tr ~pipeline:0 ~tid:0 ~t0 ~t1:(t0 +. 0.01) (Aeq_exec.Trace.Ev_morsel CM.Bytecode);
  Aeq_exec.Trace.record tr ~pipeline:0 ~tid:1 ~t0:(t0 +. 0.002) ~t1:(t0 +. 0.008)
    (Aeq_exec.Trace.Ev_compile CM.Opt);
  let s = Aeq_exec.Trace.render tr ~n_threads:2 in
  Alcotest.(check bool) "has morsel lane" true (String.contains s 'b');
  Alcotest.(check bool) "has compile burst" true (String.contains s 'C');
  Alcotest.(check int) "two events" 2 (List.length (Aeq_exec.Trace.events tr))

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "all tids" `Quick test_pool_runs_all_tids;
          Alcotest.test_case "exceptions" `Quick test_pool_propagates_exceptions;
          Alcotest.test_case "main-thread exception" `Quick test_pool_main_thread_exception;
          Alcotest.test_case "helper backtrace" `Quick test_pool_helper_backtrace;
          Alcotest.test_case "single thread" `Quick test_pool_single_thread_inline;
          Alcotest.test_case "concurrent jobs" `Quick test_pool_concurrent_jobs;
        ] );
      ("progress", [ Alcotest.test_case "rates" `Quick test_progress_rates ]);
      ( "speedups",
        [
          Alcotest.test_case "fresh engine at the seeds" `Quick test_estimate_seeds;
          Alcotest.test_case "one pair per switch" `Quick test_estimate_pair;
          Alcotest.test_case "floors" `Quick test_estimate_floors;
          Alcotest.test_case "a cached variant is free" `Quick test_cached_variant_is_free;
          Alcotest.test_case "switches feed the engine" `Quick test_estimate_learns_from_switches;
        ] );
      ( "fig7 model",
        [
          Alcotest.test_case "tiny -> nothing" `Quick test_decide_nothing_when_tiny;
          Alcotest.test_case "huge -> optimized" `Quick test_decide_compile_when_huge;
          Alcotest.test_case "medium -> unoptimized" `Quick test_decide_unopt_in_between;
          Alcotest.test_case "never downgrades" `Quick test_decide_never_downgrades;
          Alcotest.test_case "no rate, no decision" `Quick test_decide_no_rate_no_decision;
          Alcotest.test_case "relative speedup blocks eager upgrade" `Quick
            test_relative_speedup_blocks_eager_upgrade;
          Alcotest.test_case "relative speedup keeps profitable upgrade" `Quick
            test_relative_speedup_still_upgrades_when_profitable;
          Alcotest.test_case "monotone in remaining" `Quick test_monotone_in_remaining;
        ] );
      ( "switching",
        [
          Alcotest.test_case "no lost work" `Quick test_no_lost_work;
          Alcotest.test_case "plan-cache mode memory" `Quick test_plan_cache_promotion;
        ] );
      ( "prepared",
        [
          Alcotest.test_case "artifact reuse" `Quick test_prepared_artifact_reuse;
          Alcotest.test_case "mode switches" `Quick test_prepared_mode_switches;
          Alcotest.test_case "rebuilt IR is the translated IR" `Quick
            test_prepared_rebuilds_same_ir;
          Alcotest.test_case "opt from rebuilt IR agrees" `Quick test_prepared_opt_from_rebuilt_ir;
          Alcotest.test_case "giant statement retention" `Quick test_prepared_giant_retention;
          Alcotest.test_case "giant statement bytecode words" `Quick
            test_prepared_bytecode_words;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "tpch words per scanned row" `Quick test_tpch_words_per_row;
          Alcotest.test_case "a decision allocates nothing" `Quick test_decision_allocates_nothing;
        ] );
      ( "result",
        [
          Alcotest.test_case "order by limit over arena rows" `Quick
            test_order_by_limit_over_arena_rows;
          Alcotest.test_case "probe before build refused" `Quick test_probe_before_build_refused;
        ] );
      ("trace", [ Alcotest.test_case "render" `Quick test_trace_render ]);
    ]
