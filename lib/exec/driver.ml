module A = Aeq_mem.Arena
module P = Aeq_plan.Physical
module CM = Aeq_backend.Cost_model
module Table = Aeq_storage.Table
module Dtype = Aeq_storage.Dtype

type mode = Bytecode | Unopt | Opt | Adaptive

let mode_name = function
  | Bytecode -> "bytecode"
  | Unopt -> "unoptimized"
  | Opt -> "optimized"
  | Adaptive -> "adaptive"

type stats = {
  codegen_seconds : float;
  bc_seconds : float;
  compile_seconds : float;
  exec_seconds : float;
  total_seconds : float;
  rows_out : int;
  final_modes : string list;
  prepared_reuse : bool;
  compile_failures : int;
}

type result = {
  names : string list;
  dtypes : Dtype.t list;
  rows : int64 array list;
  stats : stats;
  trace : Trace.t option;
  final_cm_modes : CM.mode list;
}

type prepared = {
  pr_catalog : Aeq_storage.Catalog.t;
  pr_plan : P.t;
  pr_layout : P.layout;
  pr_cost_model : CM.t;
  pr_n_threads : int;
  pr_symbols : Aeq_vm.Rt_fn.resolver;
  pr_handles : Handle.compiled array;
  pr_codegen_seconds : float;
  pr_bc_seconds : float;
  pr_executions : int Atomic.t;
      (* read by cache bookkeeping on other threads
         (Engine.cached_executions) while executions bump it *)
}

let prepared_executions p = Atomic.get p.pr_executions

let prepared_modes p = Array.to_list (Array.map Handle.mode_of_compiled p.pr_handles)

let prepared_handles p = p.pr_handles

(* Each domain's scratch register file, kept across jobs: a job only
   grows it when a pipeline needs more. The jobs a domain runs run one
   after another, and a program writes every register it reads. *)
let regs_key = Domain.DLS.new_key (fun () -> ref (Bytes.make 256 '\000'))

(* dynamically growing morsel size: small at first for dense rate
   samples, larger later to cut scheduling overhead *)
let morsel_size ~processed ~n_threads =
  let grow = processed / (8 * n_threads) in
  Stdlib.min 16384 (Stdlib.max 512 grow)

(* Stat accumulators are bumped from worker domains; a plain [float
   ref] would be a data race under the multicore memory model. *)
let rec atomic_add_float a d =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (cur +. d)) then atomic_add_float a d

let prepare ~cost_model catalog plan ~n_threads =
  let arena = Aeq_storage.Catalog.arena catalog in
  let n_threads = Stdlib.max 1 n_threads in
  (* The fallback context for the resolver: per-execution contexts are
     installed domain-locally by pipeline workers, so the compiled
     artifacts themselves are execution-independent and cacheable. *)
  let fallback_ctx =
    Aeq_rt.Context.create ~arena ~dict:(Aeq_storage.Catalog.dict catalog) ~n_threads ()
  in
  let symbols = Aeq_rt.Symbols.resolver fallback_ctx in
  let layout = P.layout plan in
  (* One pipeline at a time: a worker's IR is generated, translated to
     bytecode and dropped before the next one is generated, so
     preparing holds one worker's IR, not the whole statement's.
     Per-worker "translate" spans come from
     Compiler.translate_bytecode. The handles keep bytecode, not IR:
     an Opt promotion rebuilds its pipeline's IR from the plan and
     layout the statement retains anyway. *)
  let codegen_seconds = ref 0.0 in
  let handles =
    Array.of_list
      (List.mapi
         (fun i _ ->
           let regenerate () = Aeq_codegen.Codegen.pipeline_worker plan layout ~pipeline:i in
           let func, dt =
             Aeq_util.Clock.time_it (fun () ->
                 Aeq_obs.Event_log.with_span ~pipeline:i "codegen" regenerate)
           in
           codegen_seconds := !codegen_seconds +. dt;
           Handle.compile_worker ~cost_model ~symbols ~regenerate func)
         plan.P.pl_pipelines)
  in
  let codegen_seconds = !codegen_seconds in
  let bc_seconds =
    Array.fold_left (fun acc c -> acc +. c.Handle.bc_translate_seconds) 0.0 handles
  in
  Aeq_obs.Metrics.observe
    (Aeq_obs.Metrics.histogram "aeq_codegen_seconds"
       ~help:"IR code generation time per prepared statement")
    codegen_seconds;
  {
    pr_catalog = catalog;
    pr_plan = plan;
    pr_layout = layout;
    pr_cost_model = cost_model;
    pr_n_threads = n_threads;
    pr_symbols = symbols;
    pr_handles = handles;
    pr_codegen_seconds = codegen_seconds;
    pr_bc_seconds = bc_seconds;
    pr_executions = Atomic.make 0;
  }

(* rows small enough that pool wakeups cost more than they buy *)
let inline_threshold = 512

let execute_prepared ?(collect_trace = false) ?initial_modes ?cancel ?memory_budget_bytes
    ?(on_compile_failure = `Degrade) p ~mode ~pool =
  let t_start = Aeq_util.Clock.now () in
  let catalog = p.pr_catalog and plan = p.pr_plan and layout = p.pr_layout in
  let cost_model = p.pr_cost_model in
  let n_threads = Stdlib.min (Pool.n_threads pool) p.pr_n_threads in
  let arena = Aeq_storage.Catalog.arena catalog in
  (* Everything this execution allocates — hash tables, aggregation
     state, output rows, the state area — goes into its own scratch
     lease, released on every exit path. Concurrent executions (even
     of the same cached plan) therefore never share mutable arena
     state; the shared base chunks (loaded columns) are read-only. *)
  let lease =
    (* the [arena.lease] failpoint fires before the lease exists, so an
       injected fault here has nothing to leak — but it must still
       surface as a structured error, not a raw exception *)
    Query_error.protect (fun () -> A.lease arena)
  in
  (* Zero-width leak window: every line from here on runs inside the
     [Fun.protect] at the bottom whose finaliser releases the lease, so
     no exception — injected or real — can strand the lease's chunks. *)
  let guarded () =
  (* --- query guardrails --------------------------------------------- *)
  (* The first error (worker trap, cancellation, deadline, budget
     breach) is recorded here; every worker polls it at each morsel
     boundary, so one failing domain stops the others promptly instead
     of letting them drain the remaining morsels. This is the only
     place a deadline is enforced: it travels in the [cancel] token. *)
  let failed : Query_error.t option Atomic.t = Atomic.make None in
  let fail e = ignore (Atomic.compare_and_set failed None (Some e)) in
  let check_guards () =
    (match Atomic.get failed with
    | Some _ -> ()
    | None -> (
      (match Option.bind cancel Cancel.check with Some e -> fail e | None -> ());
      match memory_budget_bytes with
      | Some b when A.lease_used lease > b ->
        fail
          (Query_error.Memory_budget_exceeded
             { budget_bytes = b; used_bytes = A.lease_used lease })
      | _ -> ()));
    Atomic.get failed <> None
  in
  let raise_if_failed () =
    if check_guards () then
      match Atomic.get failed with
      | Some e -> Query_error.raise_error e
      | None -> ()
  in
  let compile_failures = Atomic.make 0 in
  let trace = if collect_trace then Some (Trace.create ()) else None in
  let record_compile_failure ~pipeline m =
    Atomic.incr compile_failures;
    Aeq_obs.Metrics.inc
      (Aeq_obs.Metrics.counter "aeq_compile_failures_total"
         ~help:"Failed machine-code promotions (degraded or blacklisted)"
         ~labels:[ ("mode", CM.mode_name m) ]);
    match trace with
    | Some tr ->
      let t = Aeq_util.Clock.now () in
      Trace.record tr ~pipeline ~tid:0 ~t0:t ~t1:t (Trace.Ev_compile_failed m)
    | None -> ()
  in
  let record_compile ~pipeline ~t0 ~t1 m =
    match trace with
    | Some tr when t1 > t0 -> Trace.record tr ~pipeline ~tid:0 ~t0 ~t1 (Trace.Ev_compile m)
    | _ -> ()
  in
  (* per-morsel instrumentation: pre-registered so the hot loop pays
     one atomic bump per morsel — and nothing at all (a single branch)
     when observability is disabled *)
  let obs_on = Aeq_obs.Control.enabled () in
  let morsel_counter =
    if not obs_on then [||]
    else
      Array.map
        (fun m ->
          Aeq_obs.Metrics.counter "aeq_morsels_total"
            ~help:"Morsels executed, by the mode they ran in"
            ~labels:[ ("mode", CM.mode_name m) ])
        [| CM.Bytecode; CM.Unopt; CM.Opt |]
  in
  let morsel_hist =
    if not obs_on then None
    else
      Some
        (Aeq_obs.Metrics.histogram "aeq_morsel_seconds"
           ~help:"Wall time per morsel across all worker domains")
  in
  let mode_index = function CM.Bytecode -> 0 | CM.Unopt -> 1 | CM.Opt -> 2 in
  let body () =
    (* per-execution context: fresh registries (ids issued in planning
       order) and per-worker allocators drawing from this execution's
       lease *)
    let ctx =
      Aeq_rt.Context.create ~lease ~arena ~dict:(Aeq_storage.Catalog.dict catalog)
        ~n_threads ()
    in
    let handles =
      Array.map
        (fun c -> Handle.bind c ~cost_model ~symbols:p.pr_symbols ~mem:arena)
        p.pr_handles
    in
    (* codegen and bytecode translation were paid by [prepare]; account
       them to the first execution only *)
    let first_execution = Atomic.get p.pr_executions = 0 in
    let codegen_seconds = if first_execution then p.pr_codegen_seconds else 0.0 in
    let bc_seconds = if first_execution then p.pr_bc_seconds else 0.0 in
    (* --- runtime objects (ids match planning order) ------------------ *)
    let setup_alloc = Aeq_rt.Context.allocator ctx ~tid:0 in
    Array.iter
      (fun spec ->
        ignore
          (Aeq_rt.Context.register_ht ctx
             (Aeq_rt.Hash_table.create arena ~n_threads
                ~payload_bytes:spec.P.ht_payload_bytes)))
      plan.P.pl_hts;
    (match plan.P.pl_agg with
    | Some cfg ->
      ignore
        (Aeq_rt.Context.register_agg ctx
           (Aeq_rt.Agg.create arena ~n_threads ~key_arity:cfg.P.agg_key_arity
              ~accs:(List.map fst cfg.P.agg_accs)))
    | None -> ());
    let out =
      Aeq_rt.Output.create arena ~n_threads ~row_bytes:plan.P.pl_out.P.out_row_bytes
    in
    ignore (Aeq_rt.Context.register_out ctx out);
    Array.iter (fun bm -> ignore (Aeq_rt.Context.register_pred ctx bm)) plan.P.pl_preds;
    (* --- state area --------------------------------------------------- *)
    let state = A.alloc setup_alloc (8 * Stdlib.max 1 (P.n_slots layout)) in
    Array.iteri
      (fun tref (tbl, _) ->
        Array.iteri
          (fun col (c : Table.column) ->
            A.set_i64 arena
              (state + (8 * P.slot_of_col layout ~tref ~col))
              (Int64.of_int c.Table.data))
          tbl.Table.columns)
      plan.P.pl_trefs;
    (* --- install the requested per-pipeline variants ------------------ *)
    let compile_seconds = Atomic.make 0.0 in
    (* Every promotion below goes through here: a crash stays lethal,
       any other failure comes back as its printed detail ([promote]
       has already blacklisted the mode). *)
    let try_promote h m =
      match Handle.promote h ~mode:m with
      | dt -> Ok dt
      | exception e when Aeq_util.Probe.is_crash e -> raise e
      | exception e -> Error (Printexc.to_string e)
    in
    (* A failed static promotion degrades to the handle's current mode
       (bytecode is always available) unless the caller asked to
       [`Fail]; either way the mode is blacklisted and attempted at
       most once per prepared statement. *)
    let static_promote ~pipeline h m =
      let degrade detail =
        match on_compile_failure with
        | `Fail -> Query_error.raise_error (Query_error.Compile_failed (m, detail))
        | `Degrade -> record_compile_failure ~pipeline m
      in
      if Handle.blacklisted h m then degrade "blacklisted after an earlier failure"
      else begin
        let c0 = Aeq_util.Clock.now () in
        match try_promote h m with
        | Ok dt ->
          record_compile ~pipeline ~t0:c0 ~t1:(Aeq_util.Clock.now ()) m;
          atomic_add_float compile_seconds dt
        | Error detail -> degrade detail
      end
    in
    (match mode with
    | Bytecode -> ()
    | Unopt -> Array.iteri (fun i h -> static_promote ~pipeline:i h CM.Unopt) handles
    | Opt -> Array.iteri (fun i h -> static_promote ~pipeline:i h CM.Opt) handles
    | Adaptive -> ());
    (* plan-cache warm start (paper Sec. VI): pipelines that ended
       compiled in an earlier execution of this plan start compiled.
       With a prepared statement the cached variant makes this free.
       Warm starting is opportunistic — a failure here degrades to
       bytecode regardless of [on_compile_failure]. *)
    (match (mode, initial_modes) with
    | Adaptive, Some modes ->
      List.iteri
        (fun i m ->
          match m with
          | CM.Bytecode -> ()
          | CM.Unopt | CM.Opt ->
            if i < Array.length handles && not (Handle.blacklisted handles.(i) m) then (
              match try_promote handles.(i) m with
              | Ok dt -> atomic_add_float compile_seconds dt
              | Error _ -> record_compile_failure ~pipeline:i m))
        modes
    | _ -> ());
    (* --- pipelines ----------------------------------------------------- *)
    let exec_seconds = Atomic.make 0.0 in
    List.iteri
      (fun pi (p : P.pipeline) ->
        raise_if_failed ();
        (* a join table is linked at the barrier after its build
           pipeline; a probe of one not yet linked is a planning bug *)
        List.iter
          (fun (pr : P.probe) ->
            if not (Aeq_rt.Hash_table.linked ctx.Aeq_rt.Context.hts.(pr.P.pr_ht)) then
              invalid_arg
                (Printf.sprintf "Driver: pipeline %d probes join table %d before its build" pi
                   pr.P.pr_ht))
          p.P.p_probes;
        let handle = handles.(pi) in
        let total =
          match p.P.p_source with
          | P.Src_scan { tref } -> (fst plan.P.pl_trefs.(tref)).Table.n_rows
          | P.Src_agg_scan { agg } ->
            (* pipeline barrier: merge thread-local groups, on the
               pool's participants, and expose them as a scannable
               table *)
            let a = ctx.Aeq_rt.Context.aggs.(agg) in
            Aeq_rt.Agg.merge a ~run:(fun f ->
                if n_threads = 1 then f ~tid:0 else Pool.run ~max_tids:n_threads pool f);
            let n, cols = Aeq_rt.Agg.materialize a ~allocator:setup_alloc in
            Array.iteri
              (fun k col ->
                A.set_i64 arena
                  (state + (8 * P.slot_of_agg_col layout k))
                  (Int64.of_int col))
              cols;
            n
        in
        let progress = Progress.create ~total_rows:total ~n_threads in
        let controller =
          match mode with
          | Adaptive ->
            Some (Adaptive.create ~pipeline:pi ~model:cost_model ~handle ~progress ~n_threads ())
          | Bytecode | Unopt | Opt -> None
        in
        let next = Atomic.make 0 in
        let morsels ~tid =
          let regs = Domain.DLS.get regs_key in
          let continue_ = ref true in
          while !continue_ do
            if check_guards () then continue_ := false
            else begin
              let size = morsel_size ~processed:(Progress.processed progress) ~n_threads in
              let b = Atomic.fetch_and_add next size in
              if b >= total then continue_ := false
              else begin
                let e = Stdlib.min (b + size) total in
                let t0 = Aeq_util.Clock.now () in
                match
                  Aeq_util.Probe.hit "driver.morsel";
                  Handle.run_morsel handle ~regs ~state ~first:b ~last:e ~tid
                with
                | exception exn when Aeq_util.Probe.is_crash exn ->
                  (* a domain crash is not a query error: let it tear
                     through to the participant's supervision barrier
                     (Pool.run_participant re-raises it too) *)
                  raise exn
                | exception exn ->
                  (* first error wins; peers stop at their next
                     boundary via [check_guards] *)
                  fail (Query_error.of_exn exn);
                  continue_ := false
                | () -> (
                  let t1 = Aeq_util.Clock.now () in
                  Progress.note_morsel progress ~tid ~rows:(e - b) ~seconds:(t1 -. t0);
                  if obs_on then begin
                    Aeq_obs.Metrics.inc
                      morsel_counter.(mode_index (Handle.mode handle));
                    match morsel_hist with
                    | Some h -> Aeq_obs.Metrics.observe h (t1 -. t0)
                    | None -> ()
                  end;
                  (match trace with
                  | Some tr ->
                    Trace.record tr ~pipeline:pi ~tid ~t0 ~t1
                      (Trace.Ev_morsel (Handle.mode handle))
                  | None -> ());
                  match controller with
                  | Some ctl -> (
                    match Adaptive.maybe_decide ctl with
                    | Adaptive.Do_nothing -> ()
                    | Adaptive.Compile m -> (
                      let c0 = Aeq_util.Clock.now () in
                      (* finish_compile must run even if promotion raises:
                         otherwise the handle stays marked compiling forever
                         and all future upgrades are disabled *)
                      match
                        Fun.protect
                          ~finally:(fun () -> Adaptive.finish_compile ctl)
                          (fun () -> try_promote handle m)
                      with
                      | Ok dt ->
                        let c1 = Aeq_util.Clock.now () in
                        (match trace with
                        | Some tr ->
                          Trace.record tr ~pipeline:pi ~tid ~t0:c0 ~t1:c1
                            (Trace.Ev_compile m)
                        | None -> ());
                        atomic_add_float compile_seconds dt
                      | Error _ ->
                        (* graceful degradation: [promote] blacklisted
                           the mode, so the controller will not ask
                           again; keep interpreting *)
                        record_compile_failure ~pipeline:pi m))
                  | None -> ())
              end
            end
          done
        in
        (* [morsels] is built once per pipeline: a participant joining
           allocates no closure for [Fun.protect] *)
        let job ~tid =
          (* compiled code resolves runtime objects through the
             domain-current context; install ours for the duration *)
          Aeq_rt.Context.set_current ctx;
          Aeq_util.Probe.yield "driver.ctx_install";
          match morsels ~tid with
          | () -> Aeq_rt.Context.clear_current ()
          | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            Aeq_rt.Context.clear_current ();
            Printexc.raise_with_backtrace e bt
        in
        let (), dt =
          Aeq_util.Clock.time_it (fun () ->
              if total > 0 then
                Aeq_obs.Event_log.with_span ~pipeline:pi "execute" (fun () ->
                    (* tiny pipelines run inline: one morsel's worth of
                       rows is not worth waking pool domains for, and
                       under high query concurrency the wakeup storm is
                       pure overhead *)
                    if total <= inline_threshold || n_threads = 1 then job ~tid:0
                    else Pool.run ~max_tids:n_threads pool job))
        in
        atomic_add_float exec_seconds dt;
        raise_if_failed ();
        (* build barrier: every worker's chain is complete; link them
           into a directory sized to the entries the table holds *)
        match p.P.p_sink with
        | P.S_build { ht; _ } ->
          Aeq_rt.Hash_table.link ctx.Aeq_rt.Context.hts.(ht) ~allocator:setup_alloc
        | P.S_agg _ | P.S_out _ -> ())
      plan.P.pl_pipelines;
    let handle_list = Array.to_list handles in
    let final_modes = List.map (fun h -> CM.mode_name (Handle.mode h)) handle_list in
    (* --- collect, sort, limit ----------------------------------------- *)
    (* rows stay in the arena while they are sorted and limited: only
       the ones returned are copied out *)
    let n_cols = List.length plan.P.pl_out.P.out_names in
    let word ptr k = A.chunk_get_i64 (A.chunk arena ptr) (A.chunk_offset ptr + (8 * k)) in
    let ptrs = Aeq_rt.Output.rows out in
    let dtypes = plan.P.pl_out.P.out_dtypes in
    let dict = Aeq_storage.Catalog.dict catalog in
    let dtype_arr = Array.of_list dtypes in
    (* closed over nothing that changes per comparison, so comparing
       integer keys allocates nothing *)
    let rec compare_by a b = function
      | [] -> 0
      | (idx, desc) :: rest ->
        let c =
          match dtype_arr.(idx) with
          | Dtype.Str ->
            String.compare
              (Aeq_rt.Dict.decode dict (word a idx))
              (Aeq_rt.Dict.decode dict (word b idx))
          | _ ->
            (* both words read in place: an int64 returned by [word]
               would be boxed *)
            let o = 8 * idx in
            Int64.compare
              (A.chunk_get_i64 (A.chunk arena a) (A.chunk_offset a + o))
              (A.chunk_get_i64 (A.chunk arena b) (A.chunk_offset b + o))
        in
        if c <> 0 then if desc then -c else c else compare_by a b rest
    in
    let compare_rows a b = compare_by a b plan.P.pl_order_by in
    if plan.P.pl_order_by <> [] then Array.stable_sort compare_rows ptrs;
    let n_rows =
      match plan.P.pl_limit with
      | Some n -> Stdlib.max 0 (Stdlib.min n (Array.length ptrs))
      | None -> Array.length ptrs
    in
    let rows = List.init n_rows (fun i -> Array.init n_cols (word ptrs.(i))) in
    Atomic.incr p.pr_executions;
    (* the up-front preparation cost belongs to the cold run's total *)
    let total_seconds =
      Aeq_util.Clock.now () -. t_start +. codegen_seconds +. bc_seconds
    in
    {
      names = plan.P.pl_out.P.out_names;
      dtypes;
      rows;
      final_cm_modes = List.map Handle.mode handle_list;
      stats =
        {
          codegen_seconds;
          bc_seconds;
          compile_seconds = Atomic.get compile_seconds;
          exec_seconds = Atomic.get exec_seconds;
          total_seconds;
          rows_out = n_rows;
          final_modes;
          prepared_reuse = not first_execution;
          compile_failures = Atomic.get compile_failures;
        };
      trace;
    }
  in
  body ()
  in
  (* Guaranteed cleanup: whatever happens above, this execution's
     scratch lease goes back to the arena's free pool, so concurrent
     and future queries see the memory again and the cached prepared
     statement stays reusable. Failures surface as structured
     [Query_error]s. All output rows were copied out of the arena
     before this point. An injected [arena.release] fault is swallowed
     here: reclamation already ran (it is unconditional inside
     [release]) and the fault must not mask the query's own outcome. *)
  Fun.protect
    ~finally:(fun () ->
      try A.release lease with Aeq_util.Probe.Injected _ -> ())
    (fun () -> Query_error.protect guarded)

let execute ~cost_model ?collect_trace ?initial_modes ?cancel ?memory_budget_bytes
    ?on_compile_failure catalog plan ~mode ~pool =
  let p = prepare ~cost_model catalog plan ~n_threads:(Pool.n_threads pool) in
  execute_prepared ?collect_trace ?initial_modes ?cancel ?memory_budget_bytes
    ?on_compile_failure p ~mode ~pool

let row_to_strings catalog dtypes row =
  List.mapi
    (fun i dt ->
      let v = row.(i) in
      match dt with
      | Dtype.Int -> Int64.to_string v
      | Dtype.Bool -> if Int64.equal v 0L then "false" else "true"
      | Dtype.Decimal ->
        Printf.sprintf "%Ld.%02Ld" (Int64.div v 100L) (Int64.rem (Int64.abs v) 100L)
      | Dtype.Date -> Printf.sprintf "%Ld" (Aeq_rt.Symbols.year_of_days v)
      | Dtype.Str -> Aeq_rt.Dict.decode (Aeq_storage.Catalog.dict catalog) v)
    dtypes
