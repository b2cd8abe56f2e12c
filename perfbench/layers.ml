(* Per-layer probes. The benchmark times its own calls into each
   layer's public functions, on the distinct statements of the
   workload, and turns the timings into the per-layer metrics. *)

module CM = Aeq_backend.Cost_model
module Compiler = Aeq_backend.Compiler
module Driver = Aeq_exec.Driver
module P = Aeq_plan.Physical
module M = Measure

(* plan -> layout -> worker IR, with the total IR size: the front half
   of every compile path. *)
let workers plan =
  let ws = Aeq_codegen.Codegen.all_workers plan (P.layout plan) in
  (ws, List.fold_left (fun acc f -> acc + Func.n_instrs f) 0 ws)

let symbols catalog =
  Aeq_rt.Symbols.resolver
    (Aeq_rt.Context.create ~arena:(Aeq_storage.Catalog.arena catalog)
       ~dict:(Aeq_storage.Catalog.dict catalog) ~n_threads:1 ())

(* Closure compilation without the cost model's padding, on the path
   [Handle.promote] takes: Unopt compiles the already-translated
   bytecode, Opt runs the pass pipeline and compiles the result. *)
let compile_real catalog ~symbols mode f prog =
  let mem = Aeq_storage.Catalog.arena catalog in
  match mode with
  | CM.Unopt ->
    Compiler.compile_unopt_of_bytecode ~cost_model:CM.off ~mem ~n_instrs:(Func.n_instrs f) prog
  | CM.Opt -> Compiler.compile ~cost_model:CM.off ~symbols ~mem ~mode:CM.Opt f
  | CM.Bytecode -> invalid_arg "Layers.compile_real: bytecode is translated, not compiled"

(* Real compile seconds of one pipeline worker of a statement, measured
   once per (statement key, pipeline, mode): the split of a traced
   compile burst into real work and cost-model padding. *)
let real_compile_cache : (string * int * CM.mode, float) Hashtbl.t = Hashtbl.create 64

let real_compile_seconds catalog ~key ~sql ~pipeline mode =
  match Hashtbl.find_opt real_compile_cache (key, pipeline, mode) with
  | Some s -> s
  | None ->
    let ws, _ = workers (Aeq_plan.Planner.plan_sql catalog sql) in
    let f = List.nth ws pipeline in
    let symbols = symbols catalog in
    let prog, _ = Compiler.translate_bytecode ~cost_model:CM.off ~symbols f in
    let _, s = M.per_call (fun () -> compile_real catalog ~symbols mode f prog) in
    Hashtbl.replace real_compile_cache (key, pipeline, mode) s;
    s

(* ---- front end and backend -------------------------------------------- *)

type statement = {
  instrs : int;
  parse : float;
  plan : float;
  codegen : float;
  translate : float;
  unopt : float;
  opt : float;
  opt_instrs : int;
  bytecode_ops : int;
  reg_bytes : int;
  model_pad : float;  (** modelled Unopt latency minus the real one *)
}

let probe_statement catalog ~model (r : Inputs.request) =
  let symbols = symbols catalog in
  let ast, parse = M.per_call (fun () -> Aeq_sql.Parser.parse r.Inputs.sql) in
  let plan, plan_s = M.per_call (fun () -> Aeq_plan.Planner.plan catalog ast) in
  let (ws, instrs), codegen = M.per_call (fun () -> workers plan) in
  let progs, translate =
    M.per_call (fun () ->
        List.map (fun f -> fst (Compiler.translate_bytecode ~cost_model:CM.off ~symbols f)) ws)
  in
  let _, unopt =
    M.per_call (fun () -> List.map2 (compile_real catalog ~symbols CM.Unopt) ws progs)
  in
  let opts, opt =
    M.per_call (fun () -> List.map2 (compile_real catalog ~symbols CM.Opt) ws progs)
  in
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let modelled =
    List.fold_left (fun acc f -> acc +. CM.compile_time model CM.Unopt (Func.n_instrs f)) 0.0 ws
  in
  {
    instrs;
    parse;
    plan = plan_s;
    codegen;
    translate;
    unopt;
    opt;
    opt_instrs = sum (fun c -> c.Compiler.n_instrs_after) opts;
    bytecode_ops = sum (fun p -> Array.length p.Aeq_vm.Bytecode.code) progs;
    reg_bytes = sum (fun p -> p.Aeq_vm.Bytecode.n_reg_bytes) progs;
    model_pad = Float.max 0.0 (modelled -. unopt);
  }

let front_metrics catalog ~model stmts =
  let ps = List.map (probe_statement catalog ~model) stmts in
  let n = float_of_int (List.length ps) in
  let sumf f = List.fold_left (fun acc p -> acc +. f p) 0.0 ps in
  let sumi f = List.fold_left (fun acc p -> acc + f p) 0 ps in
  let instrs = float_of_int (sumi (fun p -> p.instrs)) in
  let per_instr f = 1e9 *. sumf f /. instrs in
  let growth f = M.growth_exponent (List.map (fun p -> (float_of_int p.instrs, f p)) ps) in
  let cal = Aeq_backend.Calibration.measure () in
  [
    ("sql.parse_us", 1e6 *. sumf (fun p -> p.parse) /. n);
    ("plan.plan_us", 1e6 *. sumf (fun p -> p.plan) /. n);
    ("plan.growth_exponent", growth (fun p -> p.plan));
    ("codegen.ir_instrs", instrs);
    ("codegen.ns_per_instr", per_instr (fun p -> p.codegen));
    ("codegen.growth_exponent", growth (fun p -> p.codegen));
    ("vm.translate_ns_per_instr", per_instr (fun p -> p.translate));
    ("vm.translate_growth_exponent", growth (fun p -> p.translate));
    ("vm.bytecode_ops", float_of_int (sumi (fun p -> p.bytecode_ops)));
    ("vm.reg_file_bytes", float_of_int (sumi (fun p -> p.reg_bytes)));
    ("backend.unopt_real_ns_per_instr", per_instr (fun p -> p.unopt));
    ("backend.opt_real_ns_per_instr", per_instr (fun p -> p.opt));
    ("backend.opt_ir_shrink_ratio", float_of_int (sumi (fun p -> p.opt_instrs)) /. instrs);
    ("backend.model_pad_ms", 1e3 *. sumf (fun p -> p.model_pad) /. n);
    ("backend.calibrated_speedup_unopt", cal.Aeq_backend.Calibration.speedup_unopt);
    ("backend.calibrated_speedup_opt", cal.Aeq_backend.Calibration.speedup_opt);
  ]

(* ---- execution tiers --------------------------------------------------- *)

let scanned_rows plan =
  List.fold_left
    (fun acc p ->
      match p.P.p_source with
      | P.Src_scan { tref } -> acc + (fst plan.P.pl_trefs.(tref)).Aeq_storage.Table.n_rows
      | P.Src_agg_scan _ -> acc)
    0 plan.P.pl_pipelines

(* Execution seconds and minor-heap words per scanned row in one static
   tier. Every variant is compiled by a first, unmeasured pass; then
   whole passes over the statements run until [min_seconds] have
   passed. *)
let exec_tier catalog ~pool ~min_seconds plans mode =
  let prepared =
    List.map
      (fun plan ->
        (Driver.prepare ~cost_model:CM.off catalog plan ~n_threads:Spec.n_threads, scanned_rows plan))
      plans
  in
  List.iter (fun (p, _) -> ignore (Driver.execute_prepared p ~mode ~pool)) prepared;
  let g0 = M.gc_counts () in
  let t0 = M.now () in
  let secs = ref 0.0 and rows = ref 0 in
  while M.now () -. t0 < min_seconds do
    List.iter
      (fun (p, n) ->
        let r = Driver.execute_prepared p ~mode ~pool in
        secs := !secs +. r.Driver.stats.Driver.exec_seconds;
        rows := !rows + n)
      prepared
  done;
  let g = M.gc_delta g0 (M.gc_counts ()) in
  let rows = float_of_int (max 1 !rows) in
  (1e9 *. !secs /. rows, g.M.minor_words /. rows)

let exec_metrics catalog ~pool ~model ~min_seconds stmts =
  let plans = List.map (fun r -> Aeq_plan.Planner.plan_sql catalog r.Inputs.sql) stmts in
  let tier name mode =
    let ns, words = exec_tier catalog ~pool ~min_seconds plans mode in
    [ (Printf.sprintf "exec.%s_ns_per_row" name, ns); (Printf.sprintf "exec.%s_words_per_row" name, words) ]
  in
  let fixed =
    let p =
      Driver.prepare ~cost_model:model catalog
        (Aeq_plan.Planner.plan_sql catalog "select count(*) from region")
        ~n_threads:Spec.n_threads
    in
    snd (M.per_call (fun () -> Driver.execute_prepared p ~mode:Driver.Adaptive ~pool))
  in
  tier "bytecode" Driver.Bytecode @ tier "unopt" Driver.Unopt @ tier "opt" Driver.Opt
  @ [ ("exec.fixed_ms", M.ms fixed) ]

(* ---- baseline: the reference answers ---------------------------------- *)

type answer = {
  names : string list;
  dtypes : Aeq_storage.Dtype.t list;
  rows : int64 array list;
  seconds : float;  (** Volcano execution time *)
}

(* Volcano answers each distinct text once, on the same catalog: the
   reference every timed result is checked against. *)
let references catalog sqls =
  let refs = Hashtbl.create 64 in
  List.iter
    (fun sql ->
      if not (Hashtbl.mem refs sql) then begin
        let plan = Aeq_plan.Planner.plan_sql catalog sql in
        let rows, seconds =
          Aeq_util.Clock.time_it (fun () -> Aeq_baseline.Volcano.execute catalog plan)
        in
        Hashtbl.replace refs sql
          { names = plan.P.pl_out.P.out_names; dtypes = plan.P.pl_out.P.out_dtypes; rows; seconds }
      end)
    sqls;
  refs

let rendered catalog a = List.map (Driver.row_to_strings catalog a.dtypes) a.rows

(* ---- wire codec ------------------------------------------------------- *)

(* Encode + decode of one Result frame carrying a statement's reference
   result. *)
let codec_seconds catalog a =
  let module Pr = Aeq_net.Protocol in
  let rows = rendered catalog a in
  let frame =
    Pr.Result
      {
        names = a.names;
        dtypes = List.map Aeq_storage.Dtype.to_string a.dtypes;
        total_rows = List.length rows;
        rows;
        more = false;
        exec_seconds = 0.001;
      }
  in
  snd
    (M.per_call (fun () ->
         let s = Pr.encode_response frame in
         match Pr.decode_response (String.sub s 4 (String.length s - 4)) with
         | Ok _ -> ()
         | Error e -> failwith ("codec probe: " ^ e)))

(* ---- everything a traced child reports --------------------------------- *)

(* The probes on the workload's distinct statements [stmts], then what
   the child measured on its own requests: [plain] are the untraced
   (latency, engine execution seconds) pairs, [traced] the traced
   latencies, [gc] the collector's work over [queries] requests, and
   [promotions] the adaptive compilations per traced request. *)
let per_layer engine stmts ~seconds ~plain ~traced ~gc ~queries ~promotions ~hit_ratio spans =
  let catalog = Aeq.Engine.catalog engine and model = Aeq.Engine.cost_model engine in
  let probes =
    front_metrics catalog ~model stmts
    @ exec_metrics catalog ~pool:(Aeq.Engine.pool engine) ~model ~min_seconds:(0.05 *. seconds) stmts
  in
  let answers =
    Hashtbl.fold (fun _ a acc -> a :: acc) (references catalog (List.map (fun r -> r.Inputs.sql) stmts)) []
  in
  let q = float_of_int (max 1 queries) in
  let latency = List.map fst plain and outside = List.map (fun (l, e) -> l -. e) plain in
  probes
  @ [
      ("exec.adaptive_promotions", promotions);
      ("gc.minor_words_per_query", gc.M.minor_words /. q);
      ("gc.minor_collections_per_query", float_of_int gc.M.minor_collections /. q);
      ("gc.major_collections_per_query", float_of_int gc.M.major_collections /. q);
      ("request.exec_ms_p50", M.percentile_ms 0.50 (List.map snd plain));
      ("request.outside_exec_ms_p50", M.percentile_ms 0.50 outside);
      ("request.outside_exec_ms_p99", M.percentile_ms 0.99 outside);
      ("net.codec_us_per_frame", 1e6 *. M.Stats.mean (List.map (codec_seconds catalog) answers));
      ("core.plan_cache_hit_ratio", hit_ratio);
      ("baseline.volcano_ms_geomean", M.ms (M.geomean (List.map (fun a -> a.seconds) answers)));
      ("trace.overhead_ratio", (M.percentile 0.5 traced /. M.percentile 0.5 latency) -. 1.0);
    ]
  @ Spans.shares spans
