(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section V). See EXPERIMENTS.md for the mapping
   and for paper-vs-measured discussion.

   Usage:  main.exe [fig1] [fig2] [fig6] [fig13] [fig14] [fig15]
                    [table1] [table2] [regalloc] [micro]
   No arguments runs everything. Scale factors can be reduced or
   raised with AEQ_SF (default 0.05) and thread count with
   AEQ_THREADS (default = cores, max 8). *)

module Driver = Aeq_exec.Driver
module CM = Aeq_backend.Cost_model
module Clock = Aeq_util.Clock
module Stats = Aeq_util.Stats

let base_sf =
  match Sys.getenv_opt "AEQ_SF" with Some s -> float_of_string s | None -> 0.05

let n_threads =
  match Sys.getenv_opt "AEQ_THREADS" with
  | Some s -> int_of_string s
  | None -> Stdlib.min 8 (Domain.recommended_domain_count ())

let header title =
  Printf.printf "\n================ %s ================\n%!" title

(* engines are cached per scale factor *)
let engines : (float, Aeq.Engine.t) Hashtbl.t = Hashtbl.create 8

let engine_at sf =
  match Hashtbl.find_opt engines sf with
  | Some e -> e
  | None ->
    let e = Aeq.Engine.create ~n_threads () in
    let (), dt = Clock.time_it (fun () -> Aeq.Engine.load_tpch e ~scale_factor:sf) in
    Printf.printf "[load] TPC-H sf=%.3f loaded in %.1f s\n%!" sf dt;
    Hashtbl.replace engines sf e;
    e

let ms x = x *. 1000.0

let time_best ?(n = 3) f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to n do
    let r, dt = Clock.time_it f in
    result := Some r;
    if dt < !best then best := dt
  done;
  (Option.get !result, !best)

(* ------------------------------------------------------------------ *)
(* FIG 1 / FIG 3: compilation phases of Q1                             *)
(* ------------------------------------------------------------------ *)
let fig1 () =
  header "FIG 1/3: phase times for TPC-H Q1 (ms)";
  let e = engine_at base_sf in
  let sql = Aeq_workload.Queries.tpch_q 1 in
  let plan, t_plan = time_best (fun () -> Aeq.Engine.plan e sql) in
  let layout = Aeq_plan.Physical.layout plan in
  let workers, t_cdg =
    time_best (fun () -> Aeq_codegen.Codegen.all_workers plan layout)
  in
  let n_instrs = List.fold_left (fun a f -> a + Func.n_instrs f) 0 workers in
  let model = Aeq.Engine.cost_model e in
  let t_bc = List.fold_left (fun a f -> a +. CM.compile_time model CM.Bytecode (Func.n_instrs f)) 0.0 workers in
  let t_unopt = List.fold_left (fun a f -> a +. CM.compile_time model CM.Unopt (Func.n_instrs f)) 0.0 workers in
  let t_opt = List.fold_left (fun a f -> a +. CM.compile_time model CM.Opt (Func.n_instrs f)) 0.0 workers in
  Printf.printf "planning (parse+analyze+optimize) %8.2f\n" (ms t_plan);
  Printf.printf "code generation (%4d IR instrs)  %8.2f\n" n_instrs (ms t_cdg);
  Printf.printf "bytecode translation              %8.2f\n" (ms t_bc);
  Printf.printf "LLVM-comp. unoptimized (modeled)  %8.2f\n" (ms t_unopt);
  Printf.printf "LLVM-comp. optimized   (modeled)  %8.2f\n" (ms t_opt)

(* ------------------------------------------------------------------ *)
(* FIG 2: compile vs execution time per mode, Q1                        *)
(* ------------------------------------------------------------------ *)
let fig2 () =
  header (Printf.sprintf "FIG 2: Q1 compile vs execution time per mode (sf=%.3f, 1 thread equivalent rates)" base_sf);
  let e = engine_at base_sf in
  let sql = Aeq_workload.Queries.tpch_q 1 in
  Printf.printf "%-14s %14s %14s\n" "mode" "compile[ms]" "exec[ms]";
  List.iter
    (fun mode ->
      let r, _ = time_best ~n:2 (fun () -> Aeq.Engine.query e ~mode sql) in
      let st = r.Driver.stats in
      Printf.printf "%-14s %14.2f %14.2f\n" (Driver.mode_name mode)
        (ms (st.Driver.bc_seconds +. st.Driver.compile_seconds))
        (ms st.Driver.exec_seconds))
    [ Driver.Bytecode; Driver.Unopt; Driver.Opt; Driver.Adaptive ];
  (* the LLVM-IR-interpreter point: direct IR interpretation is the
     slow no-translation baseline *)
  let plan = Aeq.Engine.plan e sql in
  ignore plan;
  Printf.printf "(LLVM-IR-interpreter analogue: see micro benchmark 'ir-interp')\n"

(* ------------------------------------------------------------------ *)
(* FIG 6: compile time vs #instructions across the query suite          *)
(* ------------------------------------------------------------------ *)
let fig6 () =
  header "FIG 6: modeled compile time vs IR size, all 22 queries (per query, ms)";
  let e = engine_at base_sf in
  let model = Aeq.Engine.cost_model e in
  Printf.printf "%-5s %9s %12s %12s %12s\n" "query" "#instrs" "bytecode" "unopt" "opt";
  let pts_u = ref [] and pts_o = ref [] in
  List.iter
    (fun (name, sql) ->
      let plan = Aeq.Engine.plan e sql in
      let layout = Aeq_plan.Physical.layout plan in
      let workers = Aeq_codegen.Codegen.all_workers plan layout in
      let n = List.fold_left (fun a f -> a + Func.n_instrs f) 0 workers in
      let t m = List.fold_left (fun a f -> a +. CM.compile_time model m (Func.n_instrs f)) 0.0 workers in
      pts_u := (float_of_int n, t CM.Unopt) :: !pts_u;
      pts_o := (float_of_int n, t CM.Opt) :: !pts_o;
      Printf.printf "%-5s %9d %12.2f %12.2f %12.2f\n" name n (ms (t CM.Bytecode))
        (ms (t CM.Unopt)) (ms (t CM.Opt)))
    Aeq_workload.Queries.tpch;
  let _, slope_u = Stats.linear_fit !pts_u and _, slope_o = Stats.linear_fit !pts_o in
  Printf.printf "near-linear fits: unopt %.2f us/instr, opt %.2f us/instr\n"
    (slope_u *. 1e6) (slope_o *. 1e6)

(* ------------------------------------------------------------------ *)
(* FIG 13: geometric mean over the suite, SF sweep, all modes            *)
(* ------------------------------------------------------------------ *)
let fig13 () =
  let sfs = [ base_sf /. 10.0; base_sf /. 3.0; base_sf ] in
  header
    (Printf.sprintf "FIG 13: geometric mean of 22 queries, total time [ms], %d threads" n_threads);
  Printf.printf "%-8s %12s %12s %12s %12s\n" "sf" "bytecode" "unopt" "opt" "adaptive";
  List.iter
    (fun sf ->
      let e = engine_at sf in
      let per_mode =
        List.map
          (fun mode ->
            let times =
              List.map
                (fun (_, sql) ->
                  let r, dt = Clock.time_it (fun () -> Aeq.Engine.query e ~mode sql) in
                  ignore r;
                  dt)
                Aeq_workload.Queries.tpch
            in
            Stats.geomean times)
          [ Driver.Bytecode; Driver.Unopt; Driver.Opt; Driver.Adaptive ]
      in
      match per_mode with
      | [ b; u; o; a ] ->
        Printf.printf "%-8.3f %12.2f %12.2f %12.2f %12.2f\n%!" sf (ms b) (ms u) (ms o) (ms a)
      | _ -> assert false)
    sfs

(* ------------------------------------------------------------------ *)
(* FIG 14: execution trace of Q11, 4 threads                            *)
(* ------------------------------------------------------------------ *)
let fig14 () =
  header "FIG 14: execution trace of Q11 (4 worker threads)";
  (* a dedicated 4-thread engine: the trace structure (morsel lanes,
     compile bursts) needs several workers even on few cores *)
  let e = Aeq.Engine.create ~n_threads:4 () in
  Aeq.Engine.load_tpch e ~scale_factor:base_sf;
  let sql = Aeq_workload.Queries.tpch_q 11 in
  List.iter
    (fun mode ->
      let r = Aeq.Engine.query e ~mode ~collect_trace:true sql in
      Printf.printf "\n--- %s (%.2f ms total) ---\n" (Driver.mode_name mode)
        (ms r.Driver.stats.Driver.total_seconds);
      Printf.printf "final pipeline modes: %s\n"
        (String.concat ", " r.Driver.stats.Driver.final_modes);
      match r.Driver.trace with
      | Some tr -> print_string (Aeq_exec.Trace.render tr ~n_threads:4)
      | None -> ())
    [ Driver.Bytecode; Driver.Unopt; Driver.Adaptive ];
  Aeq.Engine.close e

(* ------------------------------------------------------------------ *)
(* FIG 15: very large machine-generated queries                          *)
(* ------------------------------------------------------------------ *)
let fig15 () =
  header "FIG 15: machine-generated queries, front half [ms]";
  let e = engine_at (base_sf /. 10.0) in
  let model = Aeq.Engine.cost_model e in
  let catalog = Aeq.Engine.catalog e in
  let symbols =
    Aeq_rt.Symbols.resolver
      (Aeq_rt.Context.create ~arena:(Aeq_storage.Catalog.arena catalog)
         ~dict:(Aeq_storage.Catalog.dict catalog) ~n_threads:1 ())
  in
  (* measured (best of 3, the pad off): parse+plan, code generation,
     bytecode translation. The LLVM tiers are not measured here: their
     latencies are Cost_model's, so they get columns of their own *)
  Printf.printf "%-6s %8s | %9s %9s %9s | %11s %11s\n" "#aggs" "#instrs" "plan" "codegen"
    "translate" "model unopt" "model opt";
  List.iter
    (fun n_aggs ->
      let sql = Aeq_workload.Queries.large_query n_aggs in
      let plan, t_plan = time_best (fun () -> Aeq.Engine.plan e sql) in
      let layout = Aeq_plan.Physical.layout plan in
      let workers, t_cdg =
        time_best (fun () -> Aeq_codegen.Codegen.all_workers plan layout)
      in
      let (), t_bc =
        time_best (fun () ->
            List.iter
              (fun f ->
                ignore (Aeq_backend.Compiler.translate_bytecode ~cost_model:CM.off ~symbols f))
              workers)
      in
      let n = List.fold_left (fun a f -> a + Func.n_instrs f) 0 workers in
      let t m =
        List.fold_left (fun a f -> a +. CM.compile_time model m (Func.n_instrs f)) 0.0 workers
      in
      Printf.printf "%-6d %8d | %9.2f %9.2f %9.2f | %11.2f %11.2f\n%!" n_aggs n (ms t_plan)
        (ms t_cdg) (ms t_bc) (ms (t CM.Unopt)) (ms (t CM.Opt)))
    [ 10; 50; 100; 200; 400; 800; 1900; 3200; 6400 ];
  (* and demonstrate that the bytecode path actually executes the
     largest query *)
  let sql = Aeq_workload.Queries.large_query 400 in
  let r, dt = Clock.time_it (fun () -> Aeq.Engine.query e ~mode:Driver.Bytecode sql) in
  Printf.printf "bytecode end-to-end on 400 aggregates: %.1f ms (%d rows)\n" (ms dt)
    r.Driver.stats.Driver.rows_out

(* ------------------------------------------------------------------ *)
(* TABLE 1: planning and compilation times                               *)
(* ------------------------------------------------------------------ *)
let table1 () =
  header "TABLE I: planning and compilation times [ms]";
  let e = engine_at base_sf in
  let model = Aeq.Engine.cost_model e in
  Printf.printf "%-5s %8s %8s %8s %8s %8s\n" "query" "plan" "cdg." "bc." "unopt" "opt";
  let maxes = Array.make 5 0.0 in
  List.iteri
    (fun i (name, sql) ->
      let plan, t_plan = time_best ~n:2 (fun () -> Aeq.Engine.plan e sql) in
      let layout = Aeq_plan.Physical.layout plan in
      let workers, t_cdg =
        time_best ~n:2 (fun () -> Aeq_codegen.Codegen.all_workers plan layout)
      in
      let t m =
        List.fold_left (fun a f -> a +. CM.compile_time model m (Func.n_instrs f)) 0.0 workers
      in
      let row = [| t_plan; t_cdg; t CM.Bytecode; t CM.Unopt; t CM.Opt |] in
      Array.iteri (fun k v -> if v > maxes.(k) then maxes.(k) <- v) row;
      if i < 5 then
        Printf.printf "%-5s %8.2f %8.2f %8.2f %8.2f %8.2f\n" name (ms row.(0)) (ms row.(1))
          (ms row.(2)) (ms row.(3)) (ms row.(4)))
    Aeq_workload.Queries.tpch;
  Printf.printf "%-5s %8.2f %8.2f %8.2f %8.2f %8.2f\n" "max" (ms maxes.(0)) (ms maxes.(1))
    (ms maxes.(2)) (ms maxes.(3)) (ms maxes.(4))

(* ------------------------------------------------------------------ *)
(* TABLE 2: execution times, baselines and modes, 1 vs N threads         *)
(* ------------------------------------------------------------------ *)
let table2 () =
  header
    (Printf.sprintf "TABLE II: execution times [ms] (sf=%.3f; pg=volcano, monet=vectorized)"
       base_sf);
  let e = engine_at base_sf in
  let catalog = Aeq.Engine.catalog e in
  let e1 = Aeq.Engine.create ~n_threads:1 () in
  (* share the catalog through a 1-thread pool on the same data: reuse
     the same engine data by running the driver directly *)
  Aeq.Engine.close e1;
  let pool1 = Aeq_exec.Pool.create ~n_threads:1 () in
  Printf.printf "%-5s %9s %9s | %9s %9s %9s | %9s %9s %9s\n" "query" "pg" "monet" "bc(1)"
    "unopt(1)" "opt(1)" (Printf.sprintf "bc(%d)" n_threads)
    (Printf.sprintf "un(%d)" n_threads)
    (Printf.sprintf "opt(%d)" n_threads);
  let acc = Array.make 8 [] in
  let note k v = acc.(k) <- v :: acc.(k) in
  List.iteri
    (fun i (name, sql) ->
      let plan = Aeq.Engine.plan e sql in
      let _, t_pg = time_best ~n:1 (fun () -> Aeq_baseline.Volcano.execute catalog plan) in
      let _, t_mo = time_best ~n:1 (fun () -> Aeq_baseline.Vectorized.execute catalog plan) in
      let exec_time pool mode =
        let r, _ =
          time_best ~n:2 (fun () ->
              Driver.execute ~cost_model:(Aeq.Engine.cost_model e) catalog plan ~mode ~pool)
        in
        r.Driver.stats.Driver.exec_seconds
      in
      let row =
        [|
          t_pg;
          t_mo;
          exec_time pool1 Driver.Bytecode;
          exec_time pool1 Driver.Unopt;
          exec_time pool1 Driver.Opt;
          exec_time (Aeq.Engine.pool e) Driver.Bytecode;
          exec_time (Aeq.Engine.pool e) Driver.Unopt;
          exec_time (Aeq.Engine.pool e) Driver.Opt;
        |]
      in
      Array.iteri (fun k v -> note k v) row;
      if i < 5 then
        Printf.printf "%-5s %9.2f %9.2f | %9.2f %9.2f %9.2f | %9.2f %9.2f %9.2f\n%!" name
          (ms row.(0)) (ms row.(1)) (ms row.(2)) (ms row.(3)) (ms row.(4)) (ms row.(5))
          (ms row.(6)) (ms row.(7)))
    Aeq_workload.Queries.tpch;
  let g k = ms (Stats.geomean acc.(k)) in
  Printf.printf "%-5s %9.2f %9.2f | %9.2f %9.2f %9.2f | %9.2f %9.2f %9.2f\n" "geo.m"
    (g 0) (g 1) (g 2) (g 3) (g 4) (g 5) (g 6) (g 7);
  Aeq_exec.Pool.shutdown pool1

(* ------------------------------------------------------------------ *)
(* Section IV-C: register allocation ablation                            *)
(* ------------------------------------------------------------------ *)
let regalloc () =
  header "SEC IV-C: register-file size by allocation strategy [bytes]";
  let e = engine_at base_sf in
  Printf.printf "%-5s %10s %10s %10s\n" "query" "loop-aware" "window(4)" "no-reuse";
  let no_symbols = Aeq_rt.Symbols.resolver
      (Aeq_rt.Context.create ~arena:(Aeq_storage.Catalog.arena (Aeq.Engine.catalog e))
         ~dict:(Aeq_storage.Catalog.dict (Aeq.Engine.catalog e)) ~n_threads:1 ())
  in
  List.iter
    (fun qn ->
      let sql = Aeq_workload.Queries.tpch_q qn in
      let plan = Aeq.Engine.plan e sql in
      let layout = Aeq_plan.Physical.layout plan in
      let workers = Aeq_codegen.Codegen.all_workers plan layout in
      let size strategy =
        List.fold_left
          (fun a f ->
            let prog = Aeq_vm.Translate.translate ~strategy ~symbols:no_symbols f in
            a + prog.Aeq_vm.Bytecode.n_reg_bytes)
          0 workers
      in
      Printf.printf "q%-4d %10d %10d %10d\n" qn
        (size Aeq_vm.Regalloc.Loop_aware)
        (size (Aeq_vm.Regalloc.Window 4))
        (size Aeq_vm.Regalloc.No_reuse))
    [ 1; 5; 9; 19 ];
  (* and for a machine-generated mega-query *)
  let sql = Aeq_workload.Queries.large_query 200 in
  let plan = Aeq.Engine.plan e sql in
  let layout = Aeq_plan.Physical.layout plan in
  let workers = Aeq_codegen.Codegen.all_workers plan layout in
  let size strategy =
    List.fold_left
      (fun a f ->
        let prog = Aeq_vm.Translate.translate ~strategy ~symbols:no_symbols f in
        a + prog.Aeq_vm.Bytecode.n_reg_bytes)
      0 workers
  in
  Printf.printf "%-5s %10d %10d %10d\n" "gen"
    (size Aeq_vm.Regalloc.Loop_aware)
    (size (Aeq_vm.Regalloc.Window 4))
    (size Aeq_vm.Regalloc.No_reuse)

(* ------------------------------------------------------------------ *)
(* bechamel micro-benchmarks                                             *)
(* ------------------------------------------------------------------ *)
let micro () =
  header "MICRO: bechamel benchmarks (monotonic-clock ns per run)";
  let open Bechamel in
  let mem = Aeq_mem.Arena.create () in
  let alloc = Aeq_mem.Arena.allocator mem in
  let n = 10_000 in
  let col = Aeq_mem.Arena.alloc alloc (8 * n) in
  for i = 0 to n - 1 do
    Aeq_mem.Arena.set_i64 mem (col + (8 * i)) (Int64.of_int (i land 255))
  done;
  (* reuse the calibration kernel via the public API *)
  let f =
    let b = Builder.create ~name:"bench_kernel" ~params:[ Types.Ptr; Types.I64 ] in
    let head = Builder.new_block b in
    let body = Builder.new_block b in
    let exit = Builder.new_block b in
    Builder.br b head;
    Builder.switch_to b head;
    let i = Builder.phi b Types.I64 [ (0, Instr.Imm 0L) ] in
    let acc = Builder.phi b Types.I64 [ (0, Instr.Imm 0L) ] in
    let c = Builder.icmp b Instr.Slt Types.I64 i (Builder.param b 1) in
    Builder.condbr b c ~if_true:body ~if_false:exit;
    Builder.switch_to b body;
    let addr = Builder.gep b ~base:(Builder.param b 0) ~index:i ~scale:8 ~offset:0 in
    let v = Builder.load b Types.I64 addr in
    let acc' = Builder.binop b Instr.Add Types.I64 acc v in
    let i' = Builder.binop b Instr.Add Types.I64 i (Instr.Imm 1L) in
    Builder.br b head;
    Builder.add_phi_incoming b ~block:head ~dst:i ~pred:body i';
    Builder.add_phi_incoming b ~block:head ~dst:acc ~pred:body acc';
    Builder.switch_to b exit;
    Builder.ret b acc;
    let f = Builder.finish b in
    Layout.normalize f;
    f
  in
  let no_symbols : Aeq_vm.Rt_fn.resolver = fun _ -> None in
  let args = [| Int64.of_int col; Int64.of_int n |] in
  let prog = Aeq_vm.Translate.translate ~symbols:no_symbols f in
  let regs = Aeq_vm.Interp.scratch prog in
  let unopt =
    Aeq_backend.Compiler.compile_unopt_of_bytecode ~cost_model:CM.off ~mem
      ~n_instrs:(Func.n_instrs f) prog
  in
  let uregs = Aeq_backend.Closure_compile.scratch unopt.Aeq_backend.Compiler.exec in
  let opt =
    Aeq_backend.Compiler.compile ~cost_model:CM.off ~symbols:no_symbols ~mem ~mode:CM.Opt f
  in
  let oregs = Aeq_backend.Closure_compile.scratch opt.Aeq_backend.Compiler.exec in
  let tests =
    [
      Test.make ~name:"interp-10k-rows" (Staged.stage (fun () ->
          ignore (Aeq_vm.Interp.run prog mem ~regs ~args ())));
      Test.make ~name:"unopt-closures-10k-rows" (Staged.stage (fun () ->
          ignore
            (Aeq_backend.Closure_compile.run unopt.Aeq_backend.Compiler.exec ~regs:uregs
               ~args ())));
      Test.make ~name:"opt-closures-10k-rows" (Staged.stage (fun () ->
          ignore
            (Aeq_backend.Closure_compile.run opt.Aeq_backend.Compiler.exec ~regs:oregs ~args
               ())));
      Test.make ~name:"ir-interp-10k-rows" (Staged.stage (fun () ->
          ignore (Aeq_vm.Ir_interp.run f mem ~symbols:no_symbols ~args)));
      Test.make ~name:"bytecode-translate" (Staged.stage (fun () ->
          ignore (Aeq_vm.Translate.translate ~symbols:no_symbols f)));
      Test.make ~name:"liveness+regalloc" (Staged.stage (fun () ->
          let dom = Dom.compute f in
          let loops = Loops.compute f dom in
          ignore
            (Aeq_vm.Regalloc.allocate Aeq_vm.Regalloc.Loop_aware f loops ~base_offset:0
               ~param_offsets:[||])));
    ]
  in
  List.iter
    (fun test ->
      let results =
        Benchmark.all (Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) ())
          Toolkit.Instance.[ monotonic_clock ]
          test
      in
      Hashtbl.iter
        (fun name raws ->
          let stats =
            Analyze.one
              (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
              Toolkit.Instance.monotonic_clock raws
          in
          match Analyze.OLS.estimates stats with
          | Some [ est ] -> Printf.printf "%-28s %12.1f ns/run\n%!" name est
          | _ -> Printf.printf "%-28s (no estimate)\n%!" name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* Ablations: macro-op fusion (Sec. IV-F), register-allocation impact   *)
(* on execution, and the plan-cache extension (Sec. VI)                 *)
(* ------------------------------------------------------------------ *)
let ablation () =
  header "ABLATION: fusion (Sec IV-F), regalloc execution impact, plan cache (Sec VI)";
  (* a scan-filter-aggregate kernel with the fusable patterns *)
  let mem = Aeq_mem.Arena.create () in
  let alloc = Aeq_mem.Arena.allocator mem in
  let rows = 200_000 in
  let col = Aeq_mem.Arena.alloc alloc (8 * rows) in
  for i = 0 to rows - 1 do
    Aeq_mem.Arena.set_i64 mem (col + (8 * i)) (Int64.of_int (i land 1023))
  done;
  let f =
    let b = Builder.create ~name:"ablation_kernel" ~params:[ Types.Ptr; Types.I64 ] in
    let head = Builder.new_block b in
    let body = Builder.new_block b in
    let skip = Builder.new_block b in
    let exit = Builder.new_block b in
    Builder.br b head;
    Builder.switch_to b head;
    let i = Builder.phi b Types.I64 [ (0, Instr.Imm 0L) ] in
    let acc = Builder.phi b Types.I64 [ (0, Instr.Imm 0L) ] in
    let c = Builder.icmp b Instr.Slt Types.I64 i (Builder.param b 1) in
    Builder.condbr b c ~if_true:body ~if_false:exit;
    Builder.switch_to b body;
    let addr = Builder.gep b ~base:(Builder.param b 0) ~index:i ~scale:8 ~offset:0 in
    let v = Builder.load b Types.I64 addr in
    let keep = Builder.icmp b Instr.Sgt Types.I64 v (Instr.Imm 100L) in
    let masked = Builder.binop b Instr.And Types.I64 v (Instr.Imm 0xFFFFL) in
    let scaled = Builder.checked b Instr.OMul Types.I64 masked (Instr.Imm 3L) in
    let inc = Builder.select b Types.I64 keep scaled (Instr.Imm 1L) in
    let acc' = Builder.binop b Instr.Add Types.I64 acc inc in
    Builder.br b skip;
    Builder.switch_to b skip;
    let i' = Builder.binop b Instr.Add Types.I64 i (Instr.Imm 1L) in
    Builder.br b head;
    Builder.add_phi_incoming b ~block:head ~dst:i ~pred:skip i';
    Builder.add_phi_incoming b ~block:head ~dst:acc ~pred:skip acc';
    Builder.switch_to b exit;
    Builder.ret b acc;
    let f = Builder.finish b in
    Layout.normalize f;
    f
  in
  let no_symbols : Aeq_vm.Rt_fn.resolver = fun _ -> None in
  let args = [| Int64.of_int col; Int64.of_int rows |] in
  let measure ?strategy ?fuse () =
    let prog = Aeq_vm.Translate.translate ?strategy ?fuse ~symbols:no_symbols f in
    let regs = Aeq_vm.Interp.scratch prog in
    let _, dt = time_best (fun () -> Aeq_vm.Interp.run prog mem ~regs ~args ()) in
    (Array.length prog.Aeq_vm.Bytecode.code, prog.Aeq_vm.Bytecode.n_reg_bytes, dt)
  in
  let n_f, _, t_fused = measure ~fuse:true () in
  let n_u, _, t_unfused = measure ~fuse:false () in
  Printf.printf "macro-op fusion  : fused %d ops %.2f ms | unfused %d ops %.2f ms (%.0f%% fewer ops, %.0f%% faster)\n"
    n_f (ms t_fused) n_u (ms t_unfused)
    (100.0 *. (1.0 -. (float_of_int n_f /. float_of_int n_u)))
    (100.0 *. (1.0 -. (t_fused /. t_unfused)));
  let _, b_la, t_la = measure ~strategy:Aeq_vm.Regalloc.Loop_aware () in
  let _, b_nr, t_nr = measure ~strategy:Aeq_vm.Regalloc.No_reuse () in
  Printf.printf "register file    : loop-aware %d B %.2f ms | no-reuse %d B %.2f ms\n"
    b_la (ms t_la) b_nr (ms t_nr);
  (* plan cache: a repeated metadata query's total latency *)
  let e = engine_at base_sf in
  let sql = snd (List.hd Aeq_workload.Queries.metadata) in
  let r1, t1 = Clock.time_it (fun () -> Aeq.Engine.query e sql) in
  let r2, t2 = Clock.time_it (fun () -> Aeq.Engine.query e sql) in
  ignore (r1, r2);
  Printf.printf "plan cache       : cold %.2f ms | warm %.2f ms (plan + mode memory reused)\n"
    (ms t1) (ms t2)

(* ------------------------------------------------------------------ *)
(* Prepared statements: compiled artifacts survive across executions   *)
(* ------------------------------------------------------------------ *)
let prepared () =
  header "PREPARED: compiled-artifact cache across executions (adaptive mode)";
  let e = engine_at base_sf in
  Printf.printf "%-6s %11s %11s %11s %11s %11s\n" "run" "codegen[ms]" "bytecd[ms]"
    "compile[ms]" "exec[ms]" "total[ms]";
  List.iter
    (fun (name, sql) ->
      Printf.printf "--- %s ---\n" name;
      for run = 1 to 3 do
        let r = Aeq.Engine.query e ~mode:Driver.Adaptive sql in
        let st = r.Driver.stats in
        Printf.printf "%-6d %11.3f %11.3f %11.3f %11.3f %11.3f%s\n%!" run
          (ms st.Driver.codegen_seconds) (ms st.Driver.bc_seconds)
          (ms st.Driver.compile_seconds) (ms st.Driver.exec_seconds)
          (ms st.Driver.total_seconds)
          (if st.Driver.prepared_reuse then "   (cached artifacts)" else "")
      done)
    [ ("q1", Aeq_workload.Queries.tpch_q 1); ("q5", Aeq_workload.Queries.tpch_q 5) ];
  let cs = Aeq.Engine.cache_stats e in
  Printf.printf "plan cache: %d entries | %d hits | %d misses | %d evictions\n"
    cs.Aeq.Engine.entries cs.Aeq.Engine.hits cs.Aeq.Engine.misses cs.Aeq.Engine.evictions

(* ------------------------------------------------------------------ *)
(* Concurrent serving: closed-loop clients, in-process vs worker-served *)
(* ------------------------------------------------------------------ *)
let concurrency () =
  header "CONCURRENCY: closed-loop clients, in-process vs worker-served queries";
  (* every query is a scheduler ticket: [Engine.query] runs its
     in-process ticket on the client's domain, [Engine.submit] queues
     one for a pool worker. The JSON key [admission] is true for the
     worker-served rows. *)
  (* closed loop: each client waits for its answer before sending the
     next query, so the offered rate adapts to the engine — when the
     engine slows down, generation slows down with it, and queueing
     delay a fixed arrival process would build up is never measured
     (coordinated omission). The JSON rows record the loop discipline
     and offered == achieved explicitly; the open-loop complement over
     the wire is aeq_load driving aeq_server. *)
  (* small data: serving behavior, not scan throughput, is under test *)
  let sf = Stdlib.min base_sf 0.01 in
  let e = engine_at sf in
  let stmts =
    [ Aeq_workload.Queries.tpch_q 1; Aeq_workload.Queries.tpch_q 6;
      snd (List.hd Aeq_workload.Queries.metadata) ]
  in
  (* warm the plan cache so every configuration measures steady state
     (the cache admits a statement on its second sighting) *)
  List.iter (fun sql -> Aeq.Engine.prepare e sql; ignore (Aeq.Engine.query e sql)) stmts;
  let iters = 20 in
  let run_clients ~admission ~clients =
    let latencies = Array.make (clients * iters) 0.0 in
    let failures = Atomic.make 0 in
    let before = Aeq.Engine.scheduler_stats e in
    let gc0 = Gc.quick_stat () in
    let t0 = Clock.now () in
    let client c () =
      for i = 0 to iters - 1 do
        let sql = List.nth stmts ((c + i) mod List.length stmts) in
        let t = Clock.now () in
        (match
           if admission then Aeq_exec.Scheduler.await (Aeq.Engine.submit e sql)
           else Ok (Aeq.Engine.query e sql)
         with
        | Ok _ -> ()
        | Error _ | exception Aeq_exec.Query_error.Error _ -> Atomic.incr failures);
        latencies.((c * iters) + i) <- Clock.now () -. t
      done
    in
    let domains = List.init clients (fun c -> Domain.spawn (client c)) in
    List.iter Domain.join domains;
    let wall = Clock.now () -. t0 in
    (* joined domains' counts are folded into the totals, so the
       deltas cover every client *)
    let gc1 = Gc.quick_stat () in
    let after = Aeq.Engine.scheduler_stats e in
    let lat = Array.to_list latencies in
    let module S = Aeq_exec.Scheduler in
    let per_query x = x /. float_of_int (clients * iters) in
    ( float_of_int (clients * iters) /. wall,
      Stats.percentile 0.5 lat,
      Stats.percentile 0.99 lat,
      Atomic.get failures,
      after.S.shed - before.S.shed,
      after.S.rejected - before.S.rejected,
      after.S.degraded - before.S.degraded,
      per_query (gc1.Gc.minor_words -. gc0.Gc.minor_words),
      per_query (float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections)),
      per_query (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)) )
  in
  let rows = ref [] in
  Printf.printf "%-10s %8s %10s %9s %9s %7s %5s %7s %9s %11s %9s %9s\n" "served by"
    "clients" "thru[q/s]" "p50[ms]" "p99[ms]" "failed" "shed" "reject" "degraded"
    "minorw/q" "minor/q" "major/q";
  List.iter
    (fun admission ->
      List.iter
        (fun clients ->
          let thru, p50, p99, failed, shed, rejected, degraded, minor_words, minors, majors =
            run_clients ~admission ~clients
          in
          rows :=
            Printf.sprintf
              {|    {"admission": %b, "clients": %d, "loop": "closed", "throughput_qps": %.2f, "offered_rate_qps": %.2f, "achieved_rate_qps": %.2f, "p50_ms": %.3f, "p99_ms": %.3f, "failed": %d, "shed": %d, "rejected": %d, "degraded": %d, "minor_words_per_query": %.0f, "minor_collections_per_query": %.3f, "major_collections_per_query": %.4f}|}
              admission clients thru thru thru (ms p50) (ms p99) failed shed
              rejected degraded minor_words minors majors
            :: !rows;
          Printf.printf "%-10s %8d %10.1f %9.2f %9.2f %7d %5d %7d %9d %11.0f %9.3f %9.4f\n%!"
            (if admission then "worker" else "in-process") clients thru (ms p50)
            (ms p99) failed shed rejected degraded minor_words minors majors)
        [ 1; 4; 8; 16 ])
    [ false; true ];
  let out = open_out "BENCH_concurrency.json" in
  Printf.fprintf out
    "{\n  \"scenario\": \"concurrency\",\n  \"sf\": %.4f,\n  \"threads\": %d,\n  \
     \"iters_per_client\": %d,\n  \"runs\": [\n%s\n  ]\n}\n"
    sf n_threads iters
    (String.concat ",\n" (List.rev !rows));
  close_out out;
  Printf.printf "wrote BENCH_concurrency.json\n%!"

(* ------------------------------------------------------------------ *)
(* Observability: emit trace.json + metrics.prom, validate them, and   *)
(* smoke-check the enabled-vs-disabled overhead                        *)
(* ------------------------------------------------------------------ *)
let obs () =
  header "OBS: observability artifacts (trace.json, metrics.prom) + overhead smoke";
  let sf = Stdlib.min base_sf 0.01 in
  (* artifacts: a fresh engine with observability on from birth, so the
     engine/scheduler gauges register and the spans cover the whole
     lifecycle *)
  Aeq_obs.Control.with_enabled true (fun () ->
      let e = Aeq.Engine.create ~n_threads () in
      Aeq.Engine.load_tpch e ~scale_factor:sf;
      let sql = Aeq_workload.Queries.tpch_q 1 in
      let r = Aeq.Engine.query e ~mode:Driver.Adaptive ~collect_trace:true sql in
      Aeq_exec.Trace_export.write_file ?trace:r.Driver.trace "trace.json";
      Aeq.Engine.dump_metrics "metrics.prom";
      (* validate the Chrome trace: well-formed JSON with morsel, span
         and adaptive-decision events on board *)
      let ic = open_in "trace.json" in
      let len = in_channel_length ic in
      let doc = really_input_string ic len in
      close_in ic;
      (match Aeq_obs.Json.parse doc with
      | Error m -> failwith ("obs: trace.json does not parse: " ^ m)
      | Ok j ->
        let events =
          match Aeq_obs.Json.member "traceEvents" j with
          | Some arr -> Aeq_obs.Json.to_list arr
          | None -> []
        in
        let has cat =
          List.exists
            (fun ev ->
              match Aeq_obs.Json.member "cat" ev with
              | Some (Aeq_obs.Json.Str c) -> c = cat
              | _ -> false)
            events
        in
        Printf.printf
          "trace.json: %d events | morsel %b | span %b | adaptive %b\n"
          (List.length events) (has "morsel") (has "span") (has "adaptive");
        if not (has "morsel" && has "span" && has "adaptive") then
          failwith "obs: trace.json is missing an event class");
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      let metrics = Aeq.Engine.render_metrics () in
      if not (contains metrics "aeq_morsels_total") then
        failwith "obs: metrics.prom lacks aeq_morsels_total";
      Printf.printf "metrics.prom: %d bytes, %d series\n%!"
        (String.length metrics)
        (List.length (Aeq.Engine.metrics ()));
      Aeq.Engine.close e);
  (* overhead smoke: the same warmed statement in a steady loop, with
     the subsystem off and on. Loose thresholds — this guards against
     regressions that make "disabled" expensive, not micro-noise. *)
  let e = Aeq.Engine.create ~n_threads () in
  Aeq.Engine.load_tpch e ~scale_factor:sf;
  let sql = Aeq_workload.Queries.tpch_q 6 in
  ignore (Aeq.Engine.query e sql);
  let iters = 15 in
  let measure () =
    let t0 = Clock.now () in
    for _ = 1 to iters do
      ignore (Aeq.Engine.query e sql)
    done;
    Clock.now () -. t0
  in
  ignore (measure ());
  let t_off = measure () in
  let t_on = Aeq_obs.Control.with_enabled true measure in
  let overhead = 100.0 *. ((t_on -. t_off) /. t_off) in
  Printf.printf
    "overhead smoke: disabled %.1f ms | enabled %.1f ms | %+.1f%% (%d iters)\n"
    (ms t_off) (ms t_on) overhead iters;
  if overhead > 5.0 then
    Printf.printf "WARNING: enabled-observability overhead above the 5%% target\n";
  if overhead > 50.0 then failwith "obs: observability overhead out of bounds";
  Aeq.Engine.close e;
  Printf.printf "wrote trace.json and metrics.prom\n%!"

(* ------------------------------------------------------------------ *)
(* Probes: cost of the instrumentation on the warmed concurrent serving *)
(* loop, measured disabled, with a no-op simulator handler at every    *)
(* probe site, and with the race detector armed                        *)
(* ------------------------------------------------------------------ *)
let probes () =
  header "PROBES: probe-site and detector overhead on the warmed concurrent serving loop";
  let sf = Stdlib.min base_sf 0.01 in
  let e = Aeq.Engine.create ~n_threads () in
  Aeq.Engine.load_tpch e ~scale_factor:sf;
  let sql = Aeq_workload.Queries.tpch_q 6 in
  (* the serving path crosses every probe kind and every instrumented
     lock: scheduler dispatch, pool pick, morsels, arena leases, engine
     cache, trace ring, metrics *)
  let query () =
    match Aeq_exec.Scheduler.await (Aeq.Engine.submit e sql) with
    | Ok _ -> ()
    | Error err -> failwith (Aeq_exec.Query_error.to_string err)
  in
  query ();
  let iters = 25 in
  let measure () =
    let t0 = Clock.now () in
    for _ = 1 to iters do
      query ()
    done;
    Clock.now () -. t0
  in
  ignore (measure ());
  (* best-of to push scheduling noise out of every configuration *)
  let best () =
    let b = ref infinity in
    for _ = 1 to 3 do
      let dt = measure () in
      if dt < !b then b := dt
    done;
    !b
  in
  let t_off = best () in
  let t_sim = Aeq_util.Probe.with_handler (fun _site -> ()) best in
  let t_race = Aeq_race.Control.with_enabled true best in
  let gate ~what ~label t =
    let overhead = 100.0 *. ((t -. t_off) /. t_off) in
    Printf.printf "%s: disabled %.2f ms | %s %.2f ms | %+.1f%% (%d iters)\n" what
      (ms t_off) label (ms t) overhead iters;
    if overhead > 2.0 then
      Printf.printf "WARNING: %s (%s) overhead above the 2%% target\n" what label;
    if overhead > 50.0 then
      failwith (Printf.sprintf "probes: %s overhead out of bounds" what)
  in
  gate ~what:"probe sites" ~label:"no-op sim handler" t_sim;
  gate ~what:"race detector" ~label:"armed" t_race;
  (* the disabled fast path itself, against a raw mutex: the hook must
     cost one atomic load and a branch, nothing more *)
  let n = 2_000_000 in
  let raw = Mutex.create () in
  let t0 = Clock.now () in
  for _ = 1 to n do
    Mutex.lock raw;
    Mutex.unlock raw
  done;
  let t_raw = Clock.now () -. t0 in
  let instr = Aeq_race.Lock.create "bench.race.lock" in
  let t0 = Clock.now () in
  for _ = 1 to n do
    Aeq_race.Lock.lock instr;
    Aeq_race.Lock.unlock instr
  done;
  let t_instr = Clock.now () -. t0 in
  Printf.printf
    "lock primitive: raw %.1f ns/op | instrumented (disabled) %.1f ns/op\n"
    (1e9 *. t_raw /. float_of_int n)
    (1e9 *. t_instr /. float_of_int n);
  Aeq.Engine.close e

let all =
  [ "fig1"; "fig2"; "fig6"; "fig13"; "fig14"; "fig15"; "table1"; "table2"; "regalloc";
    "ablation"; "prepared"; "micro"; "concurrency"; "obs"; "probes" ]

let run_one = function
  | "fig1" -> fig1 ()
  | "fig2" -> fig2 ()
  | "fig6" -> fig6 ()
  | "fig13" -> fig13 ()
  | "fig14" -> fig14 ()
  | "fig15" -> fig15 ()
  | "table1" -> table1 ()
  | "table2" -> table2 ()
  | "regalloc" -> regalloc ()
  | "ablation" -> ablation ()
  | "prepared" -> prepared ()
  | "micro" -> micro ()
  | "concurrency" -> concurrency ()
  | "obs" -> obs ()
  | "probes" -> probes ()
  | other -> Printf.printf "unknown experiment %s (available: %s)\n" other (String.concat " " all)

let () =
  let requested =
    match Array.to_list Sys.argv with [] | [ _ ] -> all | _ :: rest -> rest
  in
  Printf.printf "adaptive-execution benchmark harness (sf=%.3f, %d threads)\n" base_sf n_threads;
  List.iter run_one requested;
  Hashtbl.iter (fun _ e -> Aeq.Engine.close e) engines
