(* The closed-loop workloads (tpch_adhoc, tpch_warm, giant_compile): one
   client in the engine's own process, the next request sent when the
   previous one returns. *)

module CM = Aeq_backend.Cost_model
module Driver = Aeq_exec.Driver
module Engine = Aeq.Engine
module M = Measure

type sample = {
  req : Inputs.request;
  latency : float;
  exec : float;  (** pipeline seconds the driver reports *)
}

let sample catalog ~perturb req ~latency (r : Driver.result) =
  M.record_answer ~perturb req.Inputs.sql
    (List.map (Driver.row_to_strings catalog r.Driver.dtypes) r.Driver.rows);
  { req; latency; exec = r.Driver.stats.Driver.exec_seconds }

(* Whole passes, at least one, until [seconds] have elapsed, so every
   statement runs equally often. Returns the answered requests' samples
   and the requests that raised. *)
let closed_loop next_pass ~seconds run =
  let t0 = M.now () in
  let samples = ref [] and failed = ref [] in
  let pass () =
    List.iter
      (fun (req : Inputs.request) ->
        match run req with
        | s -> samples := s :: !samples
        | exception e ->
          failed := req :: !failed;
          Printf.eprintf "%s failed: %s\n%!" req.Inputs.key (Printexc.to_string e))
      (next_pass ())
  in
  pass ();
  while M.now () -. t0 < seconds do
    pass ()
  done;
  (List.rev !samples, !failed)

(* Latency samples of a timed loop, failed requests included. *)
let latency_samples ~seconds (samples, failed) =
  List.map (fun s -> (s.req.Inputs.key, s.latency)) samples
  @ List.map (fun (r : Inputs.request) -> (r.Inputs.key, M.failed_latency ~seconds)) failed

let untraced engine ~perturb req =
  let t0 = M.now () in
  let r = Engine.query engine ~mode:Driver.Adaptive req.Inputs.sql in
  sample (Engine.catalog engine) ~perturb req ~latency:(M.now () -. t0) r

(* One set-up: Engine.create + load_tpch, timed. *)
let create workload =
  let t0 = M.now () in
  let e = Engine.create ~n_threads:Spec.n_threads () in
  Engine.load_tpch e ~scale_factor:(Spec.scale_factor workload);
  (e, M.now () -. t0)

(* The set-ups after the first, each engine closed at once. They run
   after the measured engine is closed, so they neither warm its heap
   nor add to its peak RSS. *)
let more_setups workload =
  List.init (Spec.setups - 1) (fun _ ->
      let e, s = create workload in
      Engine.close e;
      s)

(* ---- traced requests --------------------------------------------------- *)

(* The bench-side prepared-statement cache of the traced pass, with the
   engine's plan-cache semantics: artifacts are reused and an adaptive
   re-execution starts in the modes the previous one ended in. *)
type entry = { prepared : Driver.prepared; mutable modes : CM.mode list }

type tracer = {
  engine : Engine.t;
  cache : (string, entry) Hashtbl.t option;
  mutable next_id : int;
  mutable spans : Spans.t list;
  mutable promotions : int;
}

let tracer engine ~cached =
  {
    engine;
    cache = (if cached then Some (Hashtbl.create 64) else None);
    next_id = 0;
    spans = [];
    promotions = 0;
  }

(* One request through the layers' public functions, each call timed:
   parse and plan on a cache miss, then the driver, whose reported
   phase times and compile events become the nested spans. *)
let traced t ~perturb (req : Inputs.request) =
  let catalog = Engine.catalog t.engine in
  let id = t.next_id in
  t.next_id <- id + 1;
  let span name parent t0 t1 =
    if t1 > t0 then t.spans <- { Spans.request = id; name; parent; t0; t1 } :: t.spans
  in
  let t0 = M.now () in
  let entry, d0 =
    match Option.bind t.cache (fun c -> Hashtbl.find_opt c req.sql) with
    | Some e -> (e, M.now ())
    | None ->
      let ast = Aeq_sql.Parser.parse req.sql in
      let t1 = M.now () in
      let plan = Aeq_plan.Planner.plan catalog ast in
      let t2 = M.now () in
      span "sql.parse" "request" t0 t1;
      span "plan.plan" "request" t1 t2;
      let prepared =
        Driver.prepare ~cost_model:(Engine.cost_model t.engine) catalog plan
          ~n_threads:(Engine.n_threads t.engine)
      in
      let e = { prepared; modes = [] } in
      Option.iter (fun c -> Hashtbl.replace c req.sql e) t.cache;
      (e, t2)
  in
  let initial_modes =
    if Driver.prepared_executions entry.prepared > 0 then Some entry.modes else None
  in
  let r =
    Driver.execute_prepared ~collect_trace:true ?initial_modes entry.prepared
      ~mode:Driver.Adaptive ~pool:(Engine.pool t.engine)
  in
  let t_end = M.now () in
  entry.modes <- r.Driver.final_cm_modes;
  let st = r.Driver.stats in
  span "request" "" t0 t_end;
  span "driver" "request" d0 t_end;
  (* the driver reports codegen, translation and pipeline time; the
     rest of its time (runtime objects, aggregate merges, sorting the
     result) is [driver.other] *)
  let cg = d0 +. st.Driver.codegen_seconds in
  let bc = cg +. st.Driver.bc_seconds and x0 = t_end -. st.Driver.exec_seconds in
  span "codegen" "driver" d0 cg;
  span "translate" "driver" cg bc;
  span "driver.other" "driver" bc x0;
  span "execute" "driver" x0 t_end;
  (* compile bursts happen on one worker while the others keep
     executing, so they nest inside [execute]; each is split into the
     real closure compilation and the cost model's busy-wait *)
  Option.iter
    (fun tr ->
      let epoch = Aeq_exec.Trace.epoch tr in
      List.iter
        (fun (ev : Aeq_exec.Trace.event) ->
          match ev.Aeq_exec.Trace.kind with
          | Aeq_exec.Trace.Ev_compile mode ->
            t.promotions <- t.promotions + 1;
            let c0 = epoch +. ev.Aeq_exec.Trace.t0 and c1 = epoch +. ev.Aeq_exec.Trace.t1 in
            let real =
              Float.min (c1 -. c0)
                (Layers.real_compile_seconds catalog ~key:req.key ~sql:req.sql
                   ~pipeline:ev.Aeq_exec.Trace.pipeline mode)
            in
            span "compile.real" "execute" c0 (c0 +. real);
            span "compile.pad" "execute" (c0 +. real) c1
          | _ -> ())
        (Aeq_exec.Trace.events tr))
    r.Driver.trace;
  sample catalog ~perturb req ~latency:(t_end -. t0) r

(* ---- the child process ------------------------------------------------- *)

(* [seconds] is this child's share of the run. Untraced, all of it goes
   to the timed loop; traced, an untraced loop (the overhead baseline
   and the GC and cache counters) and a traced loop share it, and the
   layer probes run after them. *)
let run workload (inputs : Inputs.t) ~seconds ~trace ~perturb =
  let passes, stmts =
    match inputs with
    | Inputs.Closed c -> (c.passes, c.distinct)
    | Inputs.Open _ -> invalid_arg "Inproc.run: wire_meta is open-loop"
  in
  (* Engine.create measures the calibration once per process; it is
     timed on its own so that every set-up below pays the same work *)
  let t0 = M.now () in
  ignore (Aeq_backend.Calibration.measure ());
  let calibration = M.now () -. t0 in
  let engine, first_setup = create workload in
  (match workload with
  | Spec.Tpch_adhoc -> Engine.set_plan_cache engine false
  | Spec.Giant_compile -> Engine.set_plan_cache_capacity engine Spec.giant_plan_cache_capacity
  | Spec.Tpch_warm | Spec.Wire_meta -> ());
  let next_pass = Inputs.cycle passes in
  let loop ~seconds run = closed_loop next_pass ~seconds run in
  let warm_up run =
    for _ = 1 to Spec.warmup_passes do
      ignore (loop ~seconds:0.0 run)
    done
  in
  warm_up (untraced engine ~perturb:false);
  let g0 = M.gc_counts () and c0 = Engine.cache_stats engine in
  let plain_seconds = if trace then 0.35 *. seconds else seconds in
  let ((plain, plain_failed) as plain_loop) = loop ~seconds:plain_seconds (untraced engine ~perturb) in
  let gc = M.gc_delta g0 (M.gc_counts ()) and c1 = Engine.cache_stats engine in
  if not trace then begin
    let rss = M.peak_rss_mb "self" in
    Engine.close engine;
    let setup = calibration +. M.median (first_setup :: more_setups workload) in
    let errors = List.length plain_failed in
    M.outcome ~inputs:(Inputs.digest inputs)
      ~samples:(latency_samples ~seconds:plain_seconds plain_loop)
      ~metrics:
        [
          ("setup_s", setup);
          ( "throughput_qps",
            float_of_int (List.length plain)
            /. List.fold_left (fun acc s -> acc +. s.latency) 0.0 plain );
          ("peak_rss_mb", rss);
        ]
      ~attempted:(List.length plain + errors) ~errors ~spans:[] ()
  end
  else begin
    let t = tracer engine ~cached:(workload = Spec.Tpch_warm) in
    warm_up (traced t ~perturb:false);
    t.spans <- [];
    t.promotions <- 0;
    let traced_samples, traced_failed = loop ~seconds:(0.35 *. seconds) (traced t ~perturb) in
    let hits = float_of_int (c1.Engine.hits - c0.Engine.hits) in
    let misses = float_of_int (c1.Engine.misses - c0.Engine.misses) in
    let metrics =
      Layers.per_layer engine stmts ~seconds
        ~plain:(List.map (fun s -> (s.latency, s.exec)) plain)
        ~traced:(List.map (fun s -> s.latency) traced_samples)
        ~gc ~queries:(List.length plain)
        ~promotions:(float_of_int t.promotions /. float_of_int (max 1 (List.length traced_samples)))
        ~hit_ratio:(M.ratio hits (hits +. misses))
        t.spans
    in
    Engine.close engine;
    let errors = List.length plain_failed + List.length traced_failed in
    M.outcome ~inputs:(Inputs.digest inputs) ~metrics
      ~attempted:(List.length plain + List.length traced_samples + errors)
      ~errors ~spans:t.spans ()
  end
