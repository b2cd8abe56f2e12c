(* Command-line front end: run SQL against a generated TPC-H database
   in any execution mode, with EXPLAIN and execution traces.

     dune exec bin/aeq_cli.exe -- --sf 0.01 --mode adaptive \
       "select count(*) from lineitem"
     dune exec bin/aeq_cli.exe -- --explain "select ..."
     dune exec bin/aeq_cli.exe -- --trace --mode adaptive --tpch 11 *)

open Cmdliner

(* Graceful drain on SIGTERM/SIGINT: the first signal asks the serve
   loop to stop issuing queries and makes exit go through
   [Engine.drain] (admission closed, in-flight work finishes, metrics
   flushed); a second signal gives up waiting and exits hard. *)
let drain_requested = Atomic.make false

let install_drain_handlers () =
  let handle _ =
    if Atomic.get drain_requested then Stdlib.exit 130
    else Atomic.set drain_requested true
  in
  try
    Sys.set_signal Sys.sigterm (Sys.Signal_handle handle);
    Sys.set_signal Sys.sigint (Sys.Signal_handle handle)
  with Invalid_argument _ | Sys_error _ -> ()

let mode_conv =
  let parse = function
    | "bytecode" -> Ok Aeq_exec.Driver.Bytecode
    | "unopt" | "unoptimized" -> Ok Aeq_exec.Driver.Unopt
    | "opt" | "optimized" -> Ok Aeq_exec.Driver.Opt
    | "adaptive" -> Ok Aeq_exec.Driver.Adaptive
    | s -> Error (`Msg ("unknown mode " ^ s))
  in
  Arg.conv (parse, fun fmt m -> Format.pp_print_string fmt (Aeq_exec.Driver.mode_name m))

(* Closed-loop concurrent serving: [clients] domains each submit
   [iters] queries through the engine's scheduler and wait for the
   answer before sending the next. *)
let serve_clients engine ~clients ~iters ~mode ~deadline sql =
  Printf.printf "serving %d closed-loop clients x %d queries ...\n%!" clients iters;
  let per_client = Array.make clients [] in
  let ok = Atomic.make 0 and failed = Atomic.make 0 in
  let t0 = Aeq_util.Clock.now () in
  let client c () =
    let i = ref 0 in
    (* a requested drain stops the closed loop between queries; the
       in-flight one still completes through the scheduler *)
    while !i < iters && not (Atomic.get drain_requested) do
      let t = Aeq_util.Clock.now () in
      (match
         Aeq_exec.Scheduler.await
           (Aeq.Engine.submit engine ~mode ?deadline_seconds:deadline sql)
       with
      | Ok _ -> Atomic.incr ok
      | Error e ->
        Atomic.incr failed;
        if c = 0 && !i = 0 then
          Printf.printf "client error: %s\n%!" (Aeq_exec.Query_error.to_string e));
      per_client.(c) <- (Aeq_util.Clock.now () -. t) :: per_client.(c);
      incr i
    done
  in
  let domains = List.init clients (fun c -> Domain.spawn (client c)) in
  List.iter Domain.join domains;
  let wall = Aeq_util.Clock.now () -. t0 in
  let lat = List.concat (Array.to_list per_client) in
  let issued = List.length lat in
  let pct p = Aeq_util.Stats.percentile p lat *. 1e3 in
  Printf.printf "%d ok, %d failed in %.2f s | %.1f q/s | p50 %.2f ms | p99 %.2f ms\n"
    (Atomic.get ok) (Atomic.get failed) wall
    (float_of_int issued /. wall)
    (pct 0.5) (pct 0.99);
  let s = Aeq.Engine.scheduler_stats engine in
  Printf.printf
    "scheduler: admitted %d | rejected %d | shed %d | expired %d | degraded %d | \
     max depth %d | avg wait %.2f ms\n"
    s.Aeq_exec.Scheduler.admitted s.Aeq_exec.Scheduler.rejected
    s.Aeq_exec.Scheduler.shed s.Aeq_exec.Scheduler.expired
    s.Aeq_exec.Scheduler.degraded s.Aeq_exec.Scheduler.max_queue_depth
    (s.Aeq_exec.Scheduler.avg_wait_seconds *. 1e3)

let print_result engine ~threads ~trace_out result =
  print_endline (String.concat "\t" result.Aeq_exec.Driver.names);
  List.iter print_endline (Aeq.Engine.render_rows engine result);
  let st = result.Aeq_exec.Driver.stats in
  Printf.printf
    "-- %d rows | total %.2f ms (codegen %.2f, bytecode %.2f, compile %.2f, exec %.2f)\n"
    st.Aeq_exec.Driver.rows_out
    (st.Aeq_exec.Driver.total_seconds *. 1e3)
    (st.Aeq_exec.Driver.codegen_seconds *. 1e3)
    (st.Aeq_exec.Driver.bc_seconds *. 1e3)
    (st.Aeq_exec.Driver.compile_seconds *. 1e3)
    (st.Aeq_exec.Driver.exec_seconds *. 1e3);
  Printf.printf "-- pipeline modes: %s\n"
    (String.concat ", " st.Aeq_exec.Driver.final_modes);
  (match result.Aeq_exec.Driver.trace with
  | Some tr ->
    if trace_out = None then print_string (Aeq_exec.Trace.render tr ~n_threads:threads)
  | None -> ());
  match trace_out with
  | Some path ->
    Aeq_exec.Trace_export.write_file ?trace:result.Aeq_exec.Driver.trace path;
    Printf.printf "-- wrote Chrome trace to %s (chrome://tracing, Perfetto)\n" path
  | None -> ()

let run sf threads mode explain trace verify tpch_n timeout mem_budget failpoints
    strict_compile clients iters obs trace_out metrics_out show_health sql =
  install_drain_handlers ();
  (match failpoints with
  | Some spec -> Aeq_util.Probe.set_from_string spec
  | None -> ());
  if verify then Aeq_util.Verify_mode.set true;
  (* exporters need the spans/decisions/metrics recorded, so the flags
     imply observability; turn it on before the engine registers its
     instruments *)
  if obs || trace_out <> None || metrics_out <> None then
    Aeq_obs.Control.set_enabled true;
  (* a Chrome trace needs the per-morsel event stream too *)
  let trace = trace || trace_out <> None in
  let failed = ref false in
  let engine = Aeq.Engine.create ~n_threads:threads () in
  Printf.printf "loading TPC-H sf=%.3f ...\n%!" sf;
  Aeq.Engine.load_tpch engine ~scale_factor:sf;
  let sql =
    match (tpch_n, sql) with
    | Some n, _ -> Aeq_workload.Queries.tpch_q n
    | None, Some s -> s
    | None, None -> "select count(*) as lineitems from lineitem"
  in
  (* one handler for every query failure: malformed SQL, planning
     errors and execution errors all arrive as a [Query_error] *)
  (try
     if explain then
       print_endline
         (Aeq_exec.Query_error.protect (fun () -> Aeq.Engine.explain engine sql))
     else if verify then begin
       (* translation validation: the verify switch armed above makes
          every pass and every bytecode translation self-check on the
          way, and the engine then diffs the four execution modes'
          results *)
       print_endline "verifying across execution modes ...";
       match Aeq.Engine.verify_query engine sql with
       | Ok () ->
         print_endline "verification passed: bytecode, unopt, opt and adaptive agree"
       | Error report ->
         Printf.printf "verification FAILED:\n%s\n" report;
         failed := true
     end
     else if clients > 0 then
       serve_clients engine ~clients ~iters ~mode ~deadline:timeout sql
     else
       let on_compile_failure = if strict_compile then `Fail else `Degrade in
       print_result engine ~threads ~trace_out
         (Aeq.Engine.query engine ~mode ~collect_trace:trace ?timeout_seconds:timeout
            ?memory_budget_bytes:mem_budget ~on_compile_failure sql)
   with Aeq_exec.Query_error.Error e ->
     Printf.printf "query error: %s\n" (Aeq_exec.Query_error.to_string e));
  if show_health then begin
    let h = Aeq.Engine.health engine in
    Printf.printf "health: %s\n" (Aeq.Engine.health_name h);
    (match h with
    | Aeq.Engine.Degraded reasons ->
      List.iter (fun r -> Printf.printf "  - %s\n" r) reasons
    | _ -> ());
    let crashes = Aeq_exec.Supervisor.crash_log () in
    if crashes <> [] then
      Printf.printf "  %d supervised domain crash(es) recorded\n"
        (List.length crashes)
  end;
  let flush () =
    match metrics_out with
    | Some path ->
      Aeq.Engine.dump_metrics path;
      Printf.printf "-- wrote Prometheus metrics to %s\n" path
    | None -> ()
  in
  if Atomic.get drain_requested then begin
    Printf.printf "signal received: draining ...\n%!";
    let clean = Aeq.Engine.drain ~deadline_seconds:10.0 ~flush engine in
    Printf.printf "drain %s\n"
      (if clean then "completed cleanly" else "forced at deadline")
  end
  else begin
    flush ();
    Aeq.Engine.close engine
  end;
  if !failed then exit 1

let cmd =
  let sf = Arg.(value & opt float 0.01 & info [ "sf" ] ~doc:"TPC-H scale factor.") in
  let threads = Arg.(value & opt int 4 & info [ "threads"; "j" ] ~doc:"Worker threads.") in
  let mode =
    Arg.(
      value
      & opt mode_conv Aeq_exec.Driver.Adaptive
      & info [ "mode"; "m" ] ~doc:"Execution mode: bytecode|unopt|opt|adaptive.")
  in
  let explain = Arg.(value & flag & info [ "explain" ] ~doc:"Print the plan, do not run.") in
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"Render the execution trace.") in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Translation validation: arm the static verifiers (as if \
             \\$(b,AEQ_VERIFY=1)) so every optimization pass and bytecode \
             translation self-checks, run the query in all four execution modes \
             and require identical results. Exits nonzero on divergence.")
  in
  let tpch_n =
    Arg.(value & opt (some int) None & info [ "tpch" ] ~doc:"Run TPC-H query N (1..22).")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~doc:"Abort the query after this many seconds.")
  in
  let mem_budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "mem-budget" ] ~doc:"Per-query arena scratch budget in bytes.")
  in
  let failpoints =
    Arg.(
      value
      & opt (some string) None
      & info [ "failpoints" ]
          ~doc:
            "Arm fault-injection sites, e.g. \
             'compile.opt=fail,driver.morsel=fail\\@5' (same syntax as \
             \\$(b,AEQ_FAILPOINTS)).")
  in
  let strict_compile =
    Arg.(
      value & flag
      & info [ "strict-compile" ]
          ~doc:
            "Fail the query when a requested compilation fails instead of degrading \
             to bytecode.")
  in
  let clients =
    Arg.(
      value & opt int 0
      & info [ "clients" ]
          ~doc:
            "Serve the query to N closed-loop clients through the scheduler \
             (admission control, shedding, deadlines) and report \
             throughput, p50/p99 and serving stats. $(b,--timeout) becomes \
             the per-query deadline. Closed loop means each client waits \
             for its answer before sending the next query, so the offered \
             rate adapts to the engine and queueing delay is never \
             measured (coordinated omission); for a fixed offered rate \
             measured from the scheduled arrival instant, drive \
             $(b,aeq_server) with the open-loop $(b,aeq_load).")
  in
  let iters =
    Arg.(
      value & opt int 20
      & info [ "iters" ] ~doc:"Queries per client in $(b,--clients) mode.")
  in
  let obs =
    Arg.(
      value & flag
      & info [ "obs" ]
          ~doc:
            "Enable the observability subsystem (metrics, the event log of \
             lifecycle spans and adaptive decisions) as if \\$(b,AEQ_OBS=1). Implied by \
             $(b,--trace-out) and $(b,--metrics-out).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON file merging morsel/compile events, \
             query lifecycle spans and adaptive decisions; open it in \
             chrome://tracing or Perfetto. Implies $(b,--trace) and $(b,--obs).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write the metrics registry in Prometheus text exposition format on \
             exit. Implies $(b,--obs).")
  in
  let show_health =
    Arg.(
      value & flag
      & info [ "health" ]
          ~doc:
            "Print the engine health state (serving|degraded|draining|stopped) \
             after the run, with one reason per crashed or failed serving \
             domain and the supervised crash count.")
  in
  let sql = Arg.(value & pos 0 (some string) None & info [] ~docv:"SQL") in
  Cmd.v
    (Cmd.info "aeq_cli" ~doc:"Adaptive compiled query engine (ICDE'18 reproduction)")
    Term.(
      const run $ sf $ threads $ mode $ explain $ trace $ verify $ tpch_n $ timeout
      $ mem_budget $ failpoints $ strict_compile $ clients $ iters $ obs $ trace_out
      $ metrics_out $ show_health $ sql)

let () = exit (Cmd.eval cmd)
