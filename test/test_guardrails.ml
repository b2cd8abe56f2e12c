(* Tests for the fault-tolerance layer: the failpoint registry, the
   structured query-error taxonomy, cancellation / timeouts / memory
   budgets, compile-failure degradation with blacklisting, and —
   crucially — that the engine stays healthy after every fault. *)

module CM = Aeq_backend.Cost_model
module Driver = Aeq_exec.Driver
module QE = Aeq_exec.Query_error
module FP = Aeq_util.Probe

(* every test must leave the global registry clean *)
let with_clean_failpoints f =
  FP.clear ();
  Fun.protect ~finally:FP.clear f

let eager_model =
  (* free + instant compilation with large modelled speedups: the
     adaptive controller upgrades as soon as it may *)
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

let check_query_error name expected f =
  match f () with
  | _ -> Alcotest.failf "%s: expected %s, query succeeded" name expected
  | exception QE.Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: got %s, expected %s" name (QE.to_string e) expected)
      true
      (String.length expected = 0
      ||
      match (e, expected) with
      | QE.Trap _, "trap" -> true
      | QE.Compile_failed _, "compile_failed" -> true
      | QE.Timeout _, "timeout" -> true
      | QE.Cancelled, "cancelled" -> true
      | QE.Memory_budget_exceeded _, "memory" -> true
      | _ -> false)

(* ---- failpoint registry --------------------------------------------- *)

(* synthetic sites for registry-mechanics tests: the catalog rejects
   unknown names, so tests register theirs explicitly *)
let () = List.iter FP.register_site [ "site.a"; "site.n"; "a"; "b"; "c" ]

let test_failpoints_basic () =
  with_clean_failpoints (fun () ->
      Alcotest.(check bool) "disarmed" false (FP.armed ());
      FP.hit "nowhere";
      FP.activate "site.a" FP.Fail;
      Alcotest.(check bool) "armed" true (FP.armed ());
      (* persistent: fires on every hit *)
      (match FP.hit "site.a" with
      | () -> Alcotest.fail "expected Injected"
      | exception FP.Injected s -> Alcotest.(check string) "site name" "site.a" s);
      (match FP.hit "site.a" with
      | () -> Alcotest.fail "persistent site must keep firing"
      | exception FP.Injected _ -> ());
      Alcotest.(check int) "hits" 2 (FP.hits "site.a");
      Alcotest.(check int) "fired" 2 (FP.fired "site.a");
      FP.deactivate "site.a";
      FP.hit "site.a";
      Alcotest.(check bool) "disarmed again" false (FP.armed ()))

let test_failpoints_nth_hit () =
  with_clean_failpoints (fun () ->
      FP.activate ~on_hit:3 ~persistent:false "site.n" FP.Fail;
      FP.hit "site.n";
      FP.hit "site.n";
      (match FP.hit "site.n" with
      | () -> Alcotest.fail "third hit must fire"
      | exception FP.Injected _ -> ());
      (* one-shot: the fourth hit passes *)
      FP.hit "site.n";
      Alcotest.(check int) "hits counted" 4 (FP.hits "site.n");
      Alcotest.(check int) "fired once" 1 (FP.fired "site.n"))

let test_failpoints_parse () =
  with_clean_failpoints (fun () ->
      FP.set_from_string "a=fail, b=delay:0.0 ; c=fail@2";
      (match FP.hit "a" with
      | () -> Alcotest.fail "a must fire"
      | exception FP.Injected _ -> ());
      FP.hit "b" (* zero delay: returns *);
      FP.hit "c";
      (match FP.hit "c" with
      | () -> Alcotest.fail "c must fire on hit 2"
      | exception FP.Injected _ -> ());
      FP.hit "c" (* @N is one-shot *);
      List.iter
        (fun bad ->
          match FP.set_from_string bad with
          | () -> Alcotest.failf "accepted %S" bad
          | exception Invalid_argument _ -> ())
        [ "nonsense"; "x=explode"; "x=fail@zero"; "x=delay:-1" ];
      (* unknown site names are rejected with the catalog in the
         message — a typo'd site used to arm nothing, silently *)
      (match FP.activate "driver.morsle" FP.Fail with
      | () -> Alcotest.fail "typo'd site must be rejected"
      | exception Invalid_argument m ->
        let has_needle needle =
          let nl = String.length needle and ml = String.length m in
          let rec go i =
            i + nl <= ml && (String.sub m i nl = needle || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool)
          "message lists valid sites" true
          (has_needle "driver.morsel" && has_needle "arena.lease")))

(* one probe, two consumers: the simulator handler sees every hit of an
   armed site in order — including the one that then raises *)
let test_probe_handler_sees_every_hit () =
  with_clean_failpoints (fun () ->
      FP.set_from_string "compile.opt=fail@2";
      let seen = ref [] in
      let raised () =
        match FP.hit "compile.opt" with
        | () -> false
        | exception FP.Injected _ -> true
      in
      let outcomes =
        FP.with_handler
          (fun site -> seen := site :: !seen)
          (fun () ->
            let r1 = raised () in
            FP.yield "engine.cache";
            let r2 = raised () in
            let r3 = raised () in
            [ r1; r2; r3 ])
      in
      Alcotest.(check (list string))
        "handler saw every probe, in order"
        [ "compile.opt"; "engine.cache"; "compile.opt"; "compile.opt" ]
        (List.rev !seen);
      Alcotest.(check (list bool)) "Injected on hit 2 only" [ false; true; false ]
        outcomes;
      Alcotest.(check int) "fired once" 1 (FP.fired "compile.opt");
      Alcotest.(check bool) "handler gone" false (FP.simulating ());
      Alcotest.(check bool) "site still armed" true (FP.armed ()))

let test_probe_disabled_allocates_nothing () =
  with_clean_failpoints (fun () ->
      Alcotest.(check bool) "gate closed" false (FP.armed () || FP.simulating ());
      let w0 = Gc.minor_words () in
      for _ = 1 to 1_000_000 do
        FP.hit "driver.morsel"
      done;
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check bool)
        (Printf.sprintf "1M disabled hits allocated %.0f minor words (<= 16)" words)
        true (words <= 16.0))

(* ---- pool lifecycle -------------------------------------------------- *)

let test_pool_closed () =
  let pool = Aeq_exec.Pool.create ~n_threads:2 () in
  Alcotest.(check bool) "open" false (Aeq_exec.Pool.closed pool);
  Aeq_exec.Pool.shutdown pool;
  Aeq_exec.Pool.shutdown pool (* idempotent *);
  Alcotest.(check bool) "closed" true (Aeq_exec.Pool.closed pool);
  match Aeq_exec.Pool.run pool (fun ~tid -> ignore tid) with
  | () -> Alcotest.fail "run on a closed pool must raise"
  | exception Invalid_argument _ -> ()

let test_engine_close_idempotent () =
  let engine = Aeq.Engine.create ~n_threads:2 ~cost_model:CM.off () in
  Aeq.Engine.load_tpch engine ~scale_factor:0.001;
  Aeq.Engine.close engine;
  Aeq.Engine.close engine;
  Alcotest.(check bool) "closed" true (Aeq.Engine.closed engine);
  match Aeq.Engine.query engine "select count(*) from lineitem" with
  | _ -> Alcotest.fail "query on a closed engine must raise"
  | exception Invalid_argument _ -> ()

(* ---- shared engine for the end-to-end fault tests ------------------- *)

let with_engine ?(n_threads = 2) ?(cost_model = CM.off) ?(sf = 0.005) f =
  let engine = Aeq.Engine.create ~n_threads ~cost_model () in
  Aeq.Engine.load_tpch engine ~scale_factor:sf;
  Fun.protect ~finally:(fun () -> Aeq.Engine.close engine) (fun () -> f engine)

let count_lineitem engine =
  let tbl = Aeq_storage.Catalog.table (Aeq.Engine.catalog engine) "lineitem" in
  Int64.of_int tbl.Aeq_storage.Table.n_rows

let check_clean_query name engine =
  let r = Aeq.Engine.query engine "select count(*) as n from lineitem" in
  match r.Driver.rows with
  | [ [| n |] ] -> Alcotest.(check int64) name (count_lineitem engine) n
  | _ -> Alcotest.failf "%s: one row expected" name

(* ---- runtime traps end-to-end --------------------------------------- *)

let div0_sql = "select l_quantity / (l_linenumber - l_linenumber) from lineitem"

let test_trap_all_modes () =
  with_engine (fun engine ->
      List.iter
        (fun mode ->
          (match Aeq.Engine.query engine ~mode div0_sql with
          | _ -> Alcotest.failf "%s: division by zero must trap" (Driver.mode_name mode)
          | exception QE.Error (QE.Trap m) ->
            Alcotest.(check string)
              (Driver.mode_name mode ^ " trap message")
              "division by zero" m);
          (* the engine answers the next query correctly after the trap *)
          check_clean_query ("clean after " ^ Driver.mode_name mode) engine)
        [ Driver.Bytecode; Driver.Unopt; Driver.Opt; Driver.Adaptive ])

let test_trap_does_not_poison_cache () =
  (* regression for the arena-mark leak: a trapping query used to skip
     the truncate and leave the cached prepared statement dirty *)
  with_engine (fun engine ->
      let arena = Aeq_storage.Catalog.arena (Aeq.Engine.catalog engine) in
      check_query_error "first trap" "trap" (fun () ->
          Aeq.Engine.query engine ~mode:Driver.Bytecode div0_sql);
      let chunks_after_first = Aeq_mem.Arena.live_chunks arena in
      (* cache-hit re-executions of the trapping text keep trapping
         cleanly and keep releasing their scratch *)
      for _ = 1 to 3 do
        check_query_error "repeat trap" "trap" (fun () ->
            Aeq.Engine.query engine ~mode:Driver.Bytecode div0_sql)
      done;
      Alcotest.(check int) "no arena chunk leak across trapped executions"
        chunks_after_first
        (Aeq_mem.Arena.live_chunks arena);
      Alcotest.(check bool) "trapping text was served from the cache" true
        ((Aeq.Engine.cache_stats engine).Aeq.Engine.hits >= 3);
      check_clean_query "clean after repeated traps" engine)

(* ---- injected morsel trap + recovery from the plan cache ------------ *)

let test_morsel_trap_then_recover () =
  with_engine (fun engine ->
      let sql = "select sum(l_quantity) as s from lineitem" in
      let reference = Aeq.Engine.query engine sql in
      with_clean_failpoints (fun () ->
          FP.activate ~on_hit:3 ~persistent:false "driver.morsel" FP.Fail;
          check_query_error "morsel trap" "trap" (fun () ->
              Aeq.Engine.query engine sql);
          Alcotest.(check int) "failpoint fired" 1 (FP.fired "driver.morsel");
          (* same text again, served from the plan cache: correct *)
          let r = Aeq.Engine.query engine sql in
          Alcotest.(check bool) "correct rows after injected trap" true
            (r.Driver.rows = reference.Driver.rows)))

(* ---- compile-failure degradation ------------------------------------ *)

let test_static_compile_failure_degrades () =
  with_engine (fun engine ->
      with_clean_failpoints (fun () ->
          FP.activate "compile.opt" FP.Fail;
          FP.activate "compile.unopt" FP.Fail;
          let sql = "select count(*) as n from orders" in
          (* strict mode surfaces the structured error *)
          check_query_error "strict" "compile_failed" (fun () ->
              Aeq.Engine.query engine ~mode:Driver.Opt ~on_compile_failure:`Fail sql);
          (* default: degrade to bytecode, correct result *)
          List.iter
            (fun mode ->
              let r = Aeq.Engine.query engine ~mode sql in
              Alcotest.(check bool)
                (Driver.mode_name mode ^ " counted a failure")
                true
                (r.Driver.stats.Driver.compile_failures >= 1);
              List.iter
                (fun m ->
                  Alcotest.(check string)
                    (Driver.mode_name mode ^ " degraded to bytecode")
                    "bytecode" m)
                r.Driver.stats.Driver.final_modes;
              match r.Driver.rows with
              | [ [| n |] ] ->
                let tbl =
                  Aeq_storage.Catalog.table (Aeq.Engine.catalog engine) "orders"
                in
                Alcotest.(check int64)
                  (Driver.mode_name mode ^ " correct degraded result")
                  (Int64.of_int tbl.Aeq_storage.Table.n_rows)
                  n
              | _ -> Alcotest.fail "one row expected")
            [ Driver.Opt; Driver.Unopt ]))

let test_adaptive_degrades_and_never_retries () =
  (* the acceptance scenario: Opt compilation is forced to fail; an
     adaptive query completes correctly in a degraded mode, the
     blacklisted mode is attempted exactly once (no retry storm), and
     re-executions never try it again *)
  with_engine ~n_threads:2 ~cost_model:eager_model ~sf:0.01 (fun engine ->
      let sql = "select sum(l_quantity) as s from lineitem" in
      let reference = Aeq.Engine.query engine ~mode:Driver.Bytecode sql in
      with_clean_failpoints (fun () ->
          FP.activate "compile.opt" FP.Fail;
          let r1 = Aeq.Engine.query engine ~mode:Driver.Adaptive sql in
          Alcotest.(check bool) "correct rows under forced Opt failure" true
            (r1.Driver.rows = reference.Driver.rows);
          Alcotest.(check bool) "no pipeline ended optimized" true
            (List.for_all (fun m -> m <> "optimized") r1.Driver.stats.Driver.final_modes);
          let attempts_run1 = FP.hits "compile.opt" in
          let n_pipelines = List.length r1.Driver.stats.Driver.final_modes in
          Alcotest.(check bool) "opt was attempted" true (attempts_run1 >= 1);
          Alcotest.(check bool)
            "attempted at most once per pipeline (no retry storm)" true
            (attempts_run1 <= n_pipelines);
          (* the eager model still upgrades: degraded means unopt here *)
          Alcotest.(check bool) "a degraded (non-opt) upgrade still happened" true
            (List.exists (fun m -> m = "unoptimized") r1.Driver.stats.Driver.final_modes);
          (* re-execution from the plan cache: blacklisted mode never retried *)
          let r2 = Aeq.Engine.query engine ~mode:Driver.Adaptive sql in
          Alcotest.(check bool) "correct rows on re-execution" true
            (r2.Driver.rows = reference.Driver.rows);
          Alcotest.(check int) "blacklisted mode not re-attempted" attempts_run1
            (FP.hits "compile.opt");
          (* a full TPC-H query under the same forced failure *)
          let q1 = Aeq_workload.Queries.tpch_q 1 in
          let ref_q1 = Aeq.Engine.query engine ~mode:Driver.Bytecode q1 in
          let adp_q1 = Aeq.Engine.query engine ~mode:Driver.Adaptive q1 in
          Alcotest.(check bool) "tpch q1 correct under forced Opt failure" true
            (adp_q1.Driver.rows = ref_q1.Driver.rows);
          Alcotest.(check bool) "tpch q1: no pipeline ended optimized" true
            (List.for_all
               (fun m -> m <> "optimized")
               adp_q1.Driver.stats.Driver.final_modes)))

(* ---- timeout, cancellation, memory budget --------------------------- *)

let test_timeout () =
  with_engine (fun engine ->
      with_clean_failpoints (fun () ->
          FP.activate "driver.morsel" (FP.Delay 0.005);
          check_query_error "timeout" "timeout" (fun () ->
              Aeq.Engine.query engine ~mode:Driver.Bytecode ~timeout_seconds:0.01
                "select sum(l_quantity) from lineitem")));
  (* fresh closure: failpoints cleared; engine from the same scope *)
  with_engine (fun engine -> check_clean_query "clean after timeout" engine)

let test_cancel_before_start () =
  with_engine (fun engine ->
      let c = Aeq_exec.Cancel.create () in
      Aeq_exec.Cancel.cancel c;
      check_query_error "pre-cancelled" "cancelled" (fun () ->
          Aeq.Engine.query engine ~cancel:c "select count(*) from lineitem");
      check_clean_query "clean after cancel" engine)

let test_cancel_mid_query () =
  with_engine ~sf:0.01 (fun engine ->
      with_clean_failpoints (fun () ->
          (* slow morsels so the query would run for a long time *)
          FP.activate "driver.morsel" (FP.Delay 0.002);
          let c = Aeq_exec.Cancel.create () in
          let canceller =
            Domain.spawn (fun () ->
                let t0 = Aeq_util.Clock.now () in
                while Aeq_util.Clock.now () -. t0 < 0.02 do
                  Domain.cpu_relax ()
                done;
                Aeq_exec.Cancel.cancel c)
          in
          let t0 = Aeq_util.Clock.now () in
          check_query_error "mid-query cancel" "cancelled" (fun () ->
              Aeq.Engine.query engine ~mode:Driver.Bytecode ~cancel:c
                "select sum(l_quantity) from lineitem");
          Domain.join canceller;
          (* all domains stopped at a morsel boundary instead of
             draining the remaining morsels *)
          Alcotest.(check bool) "stopped promptly" true
            (Aeq_util.Clock.now () -. t0 < 5.0));
      check_clean_query "clean after mid-query cancel" engine)

let test_memory_budget () =
  with_engine (fun engine ->
      let sql = "select l_returnflag, sum(l_quantity) from lineitem group by l_returnflag" in
      (match
         Aeq.Engine.query engine ~mode:Driver.Bytecode ~memory_budget_bytes:64 sql
       with
      | _ -> Alcotest.fail "64-byte budget must be exceeded"
      | exception QE.Error (QE.Memory_budget_exceeded { budget_bytes; used_bytes }) ->
        Alcotest.(check int) "budget echoed" 64 budget_bytes;
        Alcotest.(check bool) "used exceeds budget" true (used_bytes > budget_bytes));
      (* same text, no budget: runs fine from the same cache entry *)
      let r = Aeq.Engine.query engine ~mode:Driver.Bytecode sql in
      Alcotest.(check bool) "rows produced without budget" true
        (r.Driver.stats.Driver.rows_out > 0);
      check_clean_query "clean after budget breach" engine)

(* ---- arena allocation failure --------------------------------------- *)

let test_arena_alloc_failure () =
  with_engine (fun engine ->
      with_clean_failpoints (fun () ->
          FP.activate "arena.alloc" FP.Fail;
          check_query_error "arena fault" "trap" (fun () ->
              Aeq.Engine.query engine ~mode:Driver.Bytecode
                "select sum(l_quantity) from lineitem"));
      check_clean_query "clean after arena fault" engine)

(* ---- lease-leak regression across every injected site --------------- *)

module A = Aeq_mem.Arena

(* For each fault-injection site on the execution path: inject, check
   the failure surfaces with the structured contract (or is swallowed,
   for [arena.release], whose reclamation is unconditional), then
   check the arena is at its exact pre-fault baseline — no chunk, no
   byte, no lease left behind — and that the engine still answers
   correctly. Guards the [Fun.protect] windows the driver maintains
   around lease ownership. *)
let test_fault_at_each_site_no_leak () =
  with_engine (fun engine ->
      let arena = Aeq_storage.Catalog.arena (Aeq.Engine.catalog engine) in
      check_clean_query "warm" engine;
      let baseline_chunks = A.live_chunks arena
      and baseline_resident = A.resident_bytes arena
      and baseline_leases = A.live_leases arena in
      with_clean_failpoints (fun () ->
          List.iteri
            (fun i (site, swallowed) ->
              FP.activate site FP.Fail;
              let sql =
                (* single-flight only fires on a cache miss; give it a
                   fresh text each time *)
                if site = "compile.singleflight" then
                  Printf.sprintf
                    "select count(*) as n from lineitem where l_linenumber > -%d"
                    (i + 1)
                else "select count(*) as n from lineitem"
              in
              (match Aeq.Engine.query engine sql with
              | _ ->
                if not swallowed then
                  Alcotest.failf "%s: expected an injected failure" site
              | exception QE.Error (QE.Trap _) ->
                if swallowed then
                  Alcotest.failf "%s: swallowed fault must not surface" site
              | exception e ->
                Alcotest.failf "%s: unstructured exception %s" site
                  (Printexc.to_string e));
              Alcotest.(check bool) (site ^ ": failpoint fired") true
                (FP.fired site >= 1);
              FP.deactivate site;
              check_clean_query (site ^ ": clean after fault") engine;
              Alcotest.(check int)
                (site ^ ": live chunks at baseline")
                baseline_chunks (A.live_chunks arena);
              Alcotest.(check int)
                (site ^ ": resident bytes at baseline")
                baseline_resident (A.resident_bytes arena);
              Alcotest.(check int)
                (site ^ ": no lease outstanding")
                baseline_leases (A.live_leases arena);
              Alcotest.(check int)
                (site ^ ": no scratch resident")
                0
                (A.scratch_resident_bytes arena);
              Alcotest.(check (list string)) (site ^ ": arena coherent") []
                (A.check arena))
            [
              ("arena.lease", false);
              ("arena.alloc", false);
              ("arena.release", true);
              ("driver.morsel", false);
              ("pool.pick", false);
              ("compile.singleflight", false);
            ]))

let () =
  Alcotest.run "guardrails"
    [
      ( "failpoints",
        [
          Alcotest.test_case "basic" `Quick test_failpoints_basic;
          Alcotest.test_case "nth hit" `Quick test_failpoints_nth_hit;
          Alcotest.test_case "parse" `Quick test_failpoints_parse;
          Alcotest.test_case "handler sees every hit" `Quick
            test_probe_handler_sees_every_hit;
          Alcotest.test_case "disabled hit allocates nothing" `Quick
            test_probe_disabled_allocates_nothing;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "pool closed" `Quick test_pool_closed;
          Alcotest.test_case "engine close idempotent" `Quick test_engine_close_idempotent;
        ] );
      ( "traps",
        [
          Alcotest.test_case "all modes" `Quick test_trap_all_modes;
          Alcotest.test_case "cache stays healthy" `Quick test_trap_does_not_poison_cache;
          Alcotest.test_case "morsel trap recovery" `Quick test_morsel_trap_then_recover;
        ] );
      ( "compile failures",
        [
          Alcotest.test_case "static degrade / strict fail" `Quick
            test_static_compile_failure_degrades;
          Alcotest.test_case "adaptive degrade, no retry" `Quick
            test_adaptive_degrades_and_never_retries;
        ] );
      ( "limits",
        [
          Alcotest.test_case "timeout" `Quick test_timeout;
          Alcotest.test_case "cancel before start" `Quick test_cancel_before_start;
          Alcotest.test_case "cancel mid-query" `Quick test_cancel_mid_query;
          Alcotest.test_case "memory budget" `Quick test_memory_budget;
        ] );
      ( "arena",
        [ Alcotest.test_case "alloc failure" `Quick test_arena_alloc_failure ] );
      ( "lease hygiene",
        [
          Alcotest.test_case "fault at each site leaks nothing" `Quick
            test_fault_at_each_site_no_leak;
        ] );
    ]
