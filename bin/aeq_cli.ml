(* Command-line front end: run, explain, trace or verify one SQL query
   against a generated TPC-H database in any execution mode. Serving
   clients is aeq_server's job; aeq_load drives it.

     dune exec bin/aeq_cli.exe -- --sf 0.01 --mode adaptive \
       "select count(*) from lineitem"
     dune exec bin/aeq_cli.exe -- --explain "select ..."
     dune exec bin/aeq_cli.exe -- --trace --mode adaptive --tpch 11 *)

open Cmdliner

let mode_conv =
  let parse = function
    | "bytecode" -> Ok Aeq_exec.Driver.Bytecode
    | "unopt" | "unoptimized" -> Ok Aeq_exec.Driver.Unopt
    | "opt" | "optimized" -> Ok Aeq_exec.Driver.Opt
    | "adaptive" -> Ok Aeq_exec.Driver.Adaptive
    | s -> Error (`Msg ("unknown mode " ^ s))
  in
  Arg.conv (parse, fun fmt m -> Format.pp_print_string fmt (Aeq_exec.Driver.mode_name m))

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

let run sf threads mode explain trace verify tpch_n timeout mem_budget
    strict_compile obs trace_out metrics_out sql =
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
     else
       let on_compile_failure = if strict_compile then `Fail else `Degrade in
       print_result engine ~threads ~trace_out
         (Aeq.Engine.query engine ~mode ~collect_trace:trace ?timeout_seconds:timeout
            ?memory_budget_bytes:mem_budget ~on_compile_failure sql)
   with Aeq_exec.Query_error.Error e ->
     Printf.printf "query error: %s\n" (Aeq_exec.Query_error.to_string e));
  (match metrics_out with
  | Some path ->
    Aeq.Engine.dump_metrics path;
    Printf.printf "-- wrote Prometheus metrics to %s\n" path
  | None -> ());
  Aeq.Engine.close engine;
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
  let strict_compile =
    Arg.(
      value & flag
      & info [ "strict-compile" ]
          ~doc:
            "Fail the query when a requested compilation fails instead of degrading \
             to bytecode.")
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
  let sql = Arg.(value & pos 0 (some string) None & info [] ~docv:"SQL") in
  Cmd.v
    (Cmd.info "aeq_cli" ~doc:"Adaptive compiled query engine (ICDE'18 reproduction)")
    Term.(
      const run $ sf $ threads $ mode $ explain $ trace $ verify $ tpch_n $ timeout
      $ mem_budget $ strict_compile $ obs $ trace_out $ metrics_out $ sql)

let () = exit (Cmd.eval cmd)
