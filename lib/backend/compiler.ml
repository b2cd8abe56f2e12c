type compiled = {
  exec : Closure_compile.t;
  compile_seconds : float;
  n_instrs_after : int;
}

let observe_compile mode seconds =
  if Aeq_obs.Control.enabled () then
    Aeq_obs.Metrics.observe
      (Aeq_obs.Metrics.histogram "aeq_compile_seconds"
         ~help:"Compilation latency per backend invocation (modelled padding included)."
         ~labels:[ ("mode", Cost_model.mode_name mode) ])
      seconds

(* Pad real work up to the modelled latency (when simulation is on). *)
let pad_to model mode n_instrs real_elapsed =
  if model.Cost_model.simulate then begin
    let target = Cost_model.compile_time model mode n_instrs in
    if target > real_elapsed then Aeq_util.Clock.busy_wait (target -. real_elapsed);
    Stdlib.max target real_elapsed
  end
  else real_elapsed

let translate_bytecode ?strategy ~cost_model ~symbols f =
  Aeq_obs.Event_log.with_span "translate" (fun () ->
      let n = Func.n_instrs f in
      let prog, elapsed =
        Aeq_util.Clock.time_it (fun () ->
            Aeq_vm.Translate.translate ?strategy ~symbols f)
      in
      let seconds = pad_to cost_model Cost_model.Bytecode n elapsed in
      observe_compile Cost_model.Bytecode seconds;
      (prog, seconds))

let compile_unopt_of_bytecode ~cost_model ~mem ~n_instrs prog =
  Aeq_obs.Event_log.with_span "compile" (fun () ->
      let exec, elapsed =
        Aeq_util.Clock.time_it (fun () -> Closure_compile.compile prog mem)
      in
      let compile_seconds = pad_to cost_model Cost_model.Unopt n_instrs elapsed in
      observe_compile Cost_model.Unopt compile_seconds;
      { exec; compile_seconds; n_instrs_after = n_instrs })

let compile ~cost_model ~symbols ~mem ~mode f =
  (match mode with
  | Cost_model.Bytecode -> invalid_arg "Compiler.compile: use translate_bytecode"
  | Cost_model.Unopt -> invalid_arg "Compiler.compile: use compile_unopt_of_bytecode"
  | Cost_model.Opt -> ());
  Aeq_obs.Event_log.with_span "compile" (fun () ->
      let n = Func.n_instrs f in
      let (exec, n_after), elapsed =
        Aeq_util.Clock.time_it (fun () ->
            let clone = Func.copy f in
            Aeq_obs.Event_log.with_span "optimize" (fun () ->
                Aeq_passes.Pass_manager.optimize clone);
            let prog = Aeq_vm.Translate.translate ~symbols clone in
            (Closure_compile.compile prog mem, Func.n_instrs clone))
      in
      let compile_seconds = pad_to cost_model mode n elapsed in
      observe_compile mode compile_seconds;
      { exec; compile_seconds; n_instrs_after = n_after })
