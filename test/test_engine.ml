(* End-to-end tests: the full engine on the TPC-H workload, all
   execution modes differentially against each other and against the
   Volcano / vectorized baselines, plus adaptive-specific behaviour. *)

module Driver = Aeq_exec.Driver

(* One small shared engine for the whole binary (loading data is the
   expensive part). *)
let engine =
  lazy
    (let e = Aeq.Engine.create ~n_threads:4 ~cost_model:Aeq_backend.Cost_model.off () in
     Aeq.Engine.load_tpch e ~scale_factor:0.002;
     e)

let norm_rows (r : Driver.result) =
  List.sort compare (List.map Array.to_list r.Driver.rows)

let test_modes_agree () =
  let e = Lazy.force engine in
  List.iter
    (fun (name, sql) ->
      let reference = norm_rows (Aeq.Engine.query e ~mode:Driver.Bytecode sql) in
      List.iter
        (fun mode ->
          let got = norm_rows (Aeq.Engine.query e ~mode sql) in
          if got <> reference then Alcotest.failf "%s: %s differs from bytecode" name (Driver.mode_name mode))
        [ Driver.Unopt; Driver.Opt; Driver.Adaptive ])
    (Aeq_workload.Queries.tpch @ Aeq_workload.Queries.metadata)

let test_baselines_agree () =
  let e = Lazy.force engine in
  let catalog = Aeq.Engine.catalog e in
  List.iter
    (fun (name, sql) ->
      let plan = Aeq.Engine.plan e sql in
      let reference = norm_rows (Aeq.Engine.query e ~mode:Driver.Adaptive sql) in
      let volcano =
        List.sort compare (List.map Array.to_list (Aeq_baseline.Volcano.execute catalog plan))
      in
      let vector =
        List.sort compare
          (List.map Array.to_list (Aeq_baseline.Vectorized.execute catalog plan))
      in
      if volcano <> reference then Alcotest.failf "%s: volcano mismatch" name;
      if vector <> reference then Alcotest.failf "%s: vectorized mismatch" name)
    (Aeq_workload.Queries.tpch @ Aeq_workload.Queries.metadata)

(* Columns are 1, 2 or 4 bytes by declared range, and l_orderkey
   and o_orderkey cross from 2 to 4 bytes between sf 0.01 and 0.03:
   at both, every TPC-H query answers in all four modes as Volcano
   does. *)
let test_cell_widths_agree () =
  List.iter
    (fun sf ->
      let e = Aeq.Engine.create ~n_threads:2 ~cost_model:Aeq_backend.Cost_model.off () in
      Aeq.Engine.load_tpch e ~scale_factor:sf;
      let catalog = Aeq.Engine.catalog e in
      List.iter
        (fun (name, sql) ->
          let volcano =
            List.sort compare
              (List.map Array.to_list
                 (Aeq_baseline.Volcano.execute catalog (Aeq.Engine.plan e sql)))
          in
          List.iter
            (fun mode ->
              if norm_rows (Aeq.Engine.query e ~mode sql) <> volcano then
                Alcotest.failf "sf %g %s: %s differs from volcano" sf name
                  (Driver.mode_name mode))
            [ Driver.Bytecode; Driver.Unopt; Driver.Opt; Driver.Adaptive ])
        Aeq_workload.Queries.tpch;
      Aeq.Engine.close e)
    [ 0.01; 0.03 ]

let test_q1_shape () =
  let e = Lazy.force engine in
  let r = Aeq.Engine.query e ~mode:Driver.Adaptive (Aeq_workload.Queries.tpch_q 1) in
  Alcotest.(check int) "three groups" 3 (List.length r.Driver.rows);
  Alcotest.(check int) "ten columns" 10 (List.length r.Driver.names);
  (* groups sorted by returnflag/linestatus; counts positive *)
  List.iter
    (fun row ->
      Alcotest.(check bool) "count positive" true (Int64.compare row.(9) 0L > 0))
    r.Driver.rows

let test_count_star () =
  let e = Lazy.force engine in
  let r = Aeq.Engine.query e "select count(*) as n from lineitem" in
  match r.Driver.rows with
  | [ [| n |] ] ->
    let tbl = Aeq_storage.Catalog.table (Aeq.Engine.catalog e) "lineitem" in
    Alcotest.(check int64) "count(*)" (Int64.of_int tbl.Aeq_storage.Table.n_rows) n
  | _ -> Alcotest.fail "expected one row"

let test_order_and_limit () =
  let e = Lazy.force engine in
  let r =
    Aeq.Engine.query e "select o_orderkey, o_totalprice from orders order by o_totalprice desc limit 5"
  in
  Alcotest.(check int) "limit" 5 (List.length r.Driver.rows);
  let prices = List.map (fun row -> row.(1)) r.Driver.rows in
  let sorted_desc = List.sort (fun a b -> Int64.compare b a) prices in
  Alcotest.(check bool) "descending" true (prices = sorted_desc)

let test_overflow_propagates () =
  let e = Lazy.force engine in
  (* o_totalprice * o_totalprice * huge constant overflows int64 *)
  match
    Aeq.Engine.query e
      "select sum(o_totalprice * o_totalprice * 99999999999.0) from orders"
  with
  | _ -> Alcotest.fail "expected overflow trap"
  | exception Aeq_exec.Query_error.Error (Aeq_exec.Query_error.Trap m) ->
    Alcotest.(check string) "structured trap" "integer overflow" m

let test_adaptive_compiles_large_pipeline () =
  (* with the paper cost model, a long scan should trigger compilation *)
  let e = Aeq.Engine.create ~n_threads:4 ~cost_model:Aeq_backend.Cost_model.off () in
  Aeq.Engine.load_tpch e ~scale_factor:0.02;
  let r =
    Aeq.Engine.query e ~mode:Driver.Adaptive ~collect_trace:true
      "select sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) from lineitem"
  in
  (* driver pipeline is the second of three; it should have upgraded *)
  Alcotest.(check bool) "some pipeline compiled" true
    (List.exists (fun m -> m <> "bytecode") r.Driver.stats.Driver.final_modes);
  (match r.Driver.trace with
  | Some tr ->
    let evs = Aeq_exec.Trace.events tr in
    Alcotest.(check bool) "compile event recorded" true
      (List.exists
         (fun ev -> match ev.Aeq_exec.Trace.kind with
           | Aeq_exec.Trace.Ev_compile _ -> true
           | _ -> false)
         evs)
  | None -> Alcotest.fail "trace missing");
  Aeq.Engine.close e

let test_adaptive_stays_interpreted_when_tiny () =
  let e = Lazy.force engine in
  let r =
    Aeq.Engine.query e ~mode:Driver.Adaptive
      "select n_name, r_name from nation join region on n_regionkey = r_regionkey order by n_name"
  in
  Alcotest.(check int) "25 rows" 25 (List.length r.Driver.rows);
  List.iter
    (fun m -> Alcotest.(check string) "stays bytecode" "bytecode" m)
    r.Driver.stats.Driver.final_modes

let test_query_cache_hit_skips_compilation () =
  (* acceptance: a cached re-execution's codegen + translation +
     compilation is < 10% of the cold run's, with identical rows *)
  let e = Aeq.Engine.create ~n_threads:2 ~cost_model:Aeq_backend.Cost_model.default () in
  Aeq.Engine.load_tpch e ~scale_factor:0.01;
  let sql = "select sum(l_extendedprice * (1 - l_discount)) from lineitem" in
  let cost (r : Driver.result) =
    r.Driver.stats.Driver.codegen_seconds +. r.Driver.stats.Driver.bc_seconds
    +. r.Driver.stats.Driver.compile_seconds
  in
  let r1 = Aeq.Engine.query e ~mode:Driver.Opt sql in
  let r2 = Aeq.Engine.query e ~mode:Driver.Opt sql in
  Alcotest.(check bool) "cold run pays compilation" true (cost r1 > 0.0);
  Alcotest.(check bool) "warm run under 10% of cold" true (cost r2 < 0.1 *. cost r1);
  Alcotest.(check (float 0.0)) "no codegen on hit" 0.0 r2.Driver.stats.Driver.codegen_seconds;
  Alcotest.(check (float 0.0)) "no translation on hit" 0.0 r2.Driver.stats.Driver.bc_seconds;
  Alcotest.(check (float 0.0)) "no recompilation on hit" 0.0
    r2.Driver.stats.Driver.compile_seconds;
  Alcotest.(check bool) "same rows" true (r1.Driver.rows = r2.Driver.rows);
  let st = Aeq.Engine.cache_stats e in
  Alcotest.(check int) "one miss" 1 st.Aeq.Engine.misses;
  Alcotest.(check int) "one hit" 1 st.Aeq.Engine.hits;
  Aeq.Engine.close e

let test_cache_lru_and_prepare () =
  let e = Aeq.Engine.create ~n_threads:2 ~cost_model:Aeq_backend.Cost_model.off () in
  Aeq.Engine.load_tpch e ~scale_factor:0.002;
  Aeq.Engine.set_plan_cache_capacity e 2;
  let nation = "select count(*) from nation" in
  Aeq.Engine.prepare e nation;
  let st = Aeq.Engine.cache_stats e in
  Alcotest.(check int) "prepare misses once" 1 st.Aeq.Engine.misses;
  Alcotest.(check int) "prepared but unexecuted" 0 (Aeq.Engine.cached_executions e nation);
  Aeq.Engine.prepare e nation;
  let st = Aeq.Engine.cache_stats e in
  Alcotest.(check int) "second prepare hits" 1 st.Aeq.Engine.hits;
  ignore (Aeq.Engine.query e "select count(*) from region");
  ignore (Aeq.Engine.query e "select count(*) from part");
  (* capacity 2: the least-recently-used statement (nation) is gone *)
  let st = Aeq.Engine.cache_stats e in
  Alcotest.(check int) "bounded to capacity" 2 st.Aeq.Engine.entries;
  Alcotest.(check int) "one eviction" 1 st.Aeq.Engine.evictions;
  Alcotest.(check int) "evicted statement forgotten" 0 (Aeq.Engine.cached_executions e nation);
  ignore (Aeq.Engine.query e nation);
  let st = Aeq.Engine.cache_stats e in
  Alcotest.(check int) "evicted statement re-prepared" 4 st.Aeq.Engine.misses;
  Aeq.Engine.close e

let test_explain () =
  let e = Lazy.force engine in
  let text = Aeq.Engine.explain e (Aeq_workload.Queries.tpch_q 5) in
  Alcotest.(check bool) "mentions pipelines" true
    (String.length text > 100 && String.split_on_char '\n' text |> List.length > 5)

let test_plan_errors () =
  let e = Lazy.force engine in
  let fails sql =
    match Aeq.Engine.plan e sql with
    | _ -> Alcotest.failf "expected plan error for %s" sql
    | exception Aeq_plan.Planner.Plan_error _ -> ()
  in
  fails "select nope from lineitem";
  fails "select l_quantity from lineitem, orders";
  (* cross product *)
  fails "select a, b, c from lineitem group by l_orderkey, l_partkey, l_suppkey"

(* malformed SQL is a structured error on every entry point: the
   direct call, the prepare, and a scheduler ticket *)
let test_front_end_errors_structured () =
  let e = Lazy.force engine in
  let module QE = Aeq_exec.Query_error in
  let cases =
    [
      ("select @ from lineitem", "parse_failed");
      ("select broken syntax from", "parse_failed");
      ("select count(*) from no_such_table", "plan_failed");
    ]
  in
  let class_of = function
    | QE.Parse_failed _ -> "parse_failed"
    | QE.Plan_failed _ -> "plan_failed"
    | err -> "other: " ^ QE.to_string err
  in
  let raised what sql f =
    match f () with
    | _ -> Alcotest.failf "%s %S: expected an error" what sql
    | exception QE.Error err -> class_of err
    | exception exn ->
      Alcotest.failf "%s %S: unstructured %s" what sql (Printexc.to_string exn)
  in
  List.iter
    (fun (sql, expected) ->
      Alcotest.(check string) ("query " ^ sql) expected
        (raised "query" sql (fun () -> ignore (Aeq.Engine.query e sql)));
      Alcotest.(check string) ("prepare " ^ sql) expected
        (raised "prepare" sql (fun () -> Aeq.Engine.prepare e sql));
      match Aeq_exec.Scheduler.await (Aeq.Engine.submit e sql) with
      | Ok _ -> Alcotest.failf "submit %S: expected an error" sql
      | Error err -> Alcotest.(check string) ("submit " ^ sql) expected (class_of err))
    cases

let test_large_query_runs () =
  let e = Lazy.force engine in
  let sql = Aeq_workload.Queries.large_query 30 in
  let r = Aeq.Engine.query e ~mode:Driver.Bytecode sql in
  Alcotest.(check int) "one row" 1 (List.length r.Driver.rows);
  Alcotest.(check int) "30 aggregates" 30 (List.length r.Driver.names)

(* Arena chunks are sized to what a short query touches: on a fresh
   engine at sf 0.01 a catalog query leaves at most 128 KiB of spare
   scratch (1 MiB with 1 MiB chunks), and the loaded tables' partly
   filled last chunk pads the resident bytes little (2.04 MB resident;
   2.73 MB with 1 MiB chunks). *)
let test_small_query_scratch () =
  let e = Aeq.Engine.create ~n_threads:2 ~cost_model:Aeq_backend.Cost_model.off () in
  Fun.protect ~finally:(fun () -> Aeq.Engine.close e) @@ fun () ->
  Aeq.Engine.load_tpch e ~scale_factor:0.01;
  let arena = Aeq_storage.Catalog.arena (Aeq.Engine.catalog e) in
  let resident = Aeq_mem.Arena.resident_bytes arena in
  if resident >= 2_400_000 then
    Alcotest.failf "%d bytes resident after load_tpch at sf 0.01, bound 2.4 MB" resident;
  List.iter
    (fun (name, sql) ->
      ignore (Aeq.Engine.query e sql);
      let spare = Aeq_mem.Arena.spare_bytes arena in
      if spare > 128 * 1024 then
        Alcotest.failf "%s: %d bytes of spare scratch, bound 128 KiB" name spare)
    Aeq_workload.Queries.metadata

let () =
  Alcotest.run "engine"
    [
      ( "differential",
        [
          Alcotest.test_case "all modes agree (28 queries)" `Slow test_modes_agree;
          Alcotest.test_case "baselines agree (28 queries)" `Slow test_baselines_agree;
          Alcotest.test_case "cell widths agree (sf 0.01, 0.03)" `Slow test_cell_widths_agree;
        ] );
      ( "results",
        [
          Alcotest.test_case "q1 shape" `Quick test_q1_shape;
          Alcotest.test_case "count(*)" `Quick test_count_star;
          Alcotest.test_case "order/limit" `Quick test_order_and_limit;
          Alcotest.test_case "overflow traps" `Quick test_overflow_propagates;
          Alcotest.test_case "large generated query" `Quick test_large_query_runs;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "compiles hot pipeline" `Quick test_adaptive_compiles_large_pipeline;
          Alcotest.test_case "tiny stays interpreted" `Quick test_adaptive_stays_interpreted_when_tiny;
        ] );
      ( "prepared cache",
        [
          Alcotest.test_case "cache hit skips compilation" `Quick
            test_query_cache_hit_skips_compilation;
          Alcotest.test_case "lru bound and prepare" `Quick test_cache_lru_and_prepare;
        ] );
      ( "planner",
        [
          Alcotest.test_case "explain" `Quick test_explain;
          Alcotest.test_case "plan errors" `Quick test_plan_errors;
          Alcotest.test_case "front-end errors are structured" `Quick
            test_front_end_errors_structured;
        ] );
      ("arena", [ Alcotest.test_case "small queries, small chunks" `Quick test_small_query_scratch ]);
    ]
