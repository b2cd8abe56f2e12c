let max_rounds = 4

let verify_after ~check name (f : Func.t) =
  if check || Aeq_util.Verify_mode.enabled () then
    match Verify.check f with
    | Ok () -> ()
    | Error m ->
      invalid_arg (Printf.sprintf "pass %s broke %s: %s" name f.Func.name m)

(* Per-pass wall time, one histogram series per pass name. *)
let timed name run f =
  if Aeq_obs.Control.enabled () then
    Aeq_obs.Metrics.observe_seconds
      (Aeq_obs.Metrics.histogram "aeq_pass_seconds"
         ~help:"Optimizer pass wall time per invocation."
         ~labels:[ ("pass", name) ])
      (fun () -> run f)
  else run f

let run_pass ~name pass (f : Func.t) =
  let changed = timed name pass f in
  verify_after ~check:false name f;
  changed

let optimize ?(check = false) (f : Func.t) =
  let verify_after name = verify_after ~check name f in
  let rec rounds n =
    if n > 0 then begin
      let c1 = timed "const_fold" Const_fold.run f in
      verify_after "const_fold";
      let c2 = timed "cse" Cse.run f in
      verify_after "cse";
      let c3 = timed "simplify_cfg" Simplify_cfg.run f in
      (* simplify_cfg can orphan blocks; re-establish the layout
         invariants before anything recomputes dominators *)
      Layout.normalize f;
      verify_after "simplify_cfg";
      let c4 = timed "dce" Dce.run f in
      verify_after "dce";
      if c1 || c2 || c3 || c4 then rounds (n - 1)
    end
  in
  rounds max_rounds
