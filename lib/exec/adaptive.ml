module CM = Aeq_backend.Cost_model

type decision = Do_nothing | Compile of CM.mode

type candidate = { cand_mode : CM.mode; cand_seconds : float; cand_blacklisted : bool }

type eval = {
  ev_stay_seconds : float;
  ev_candidates : candidate list;
  ev_decision : decision;
}

type t = {
  model : CM.t;
  handle : Handle.t;
  progress : Progress.t;
  n_threads : int;
  pipeline : int;
  evaluating : bool Atomic.t;
}

let min_delay_seconds = 0.001

let create ?(pipeline = 0) ~model ~handle ~progress ~n_threads () =
  { model; handle; progress; n_threads; pipeline; evaluating = Atomic.make false }

let no_eval =
  { ev_stay_seconds = infinity; ev_candidates = []; ev_decision = Do_nothing }

let evaluate ?(allow_unopt = true) ?(allow_opt = true) ~model ~current_mode ~n_instrs
    ~remaining ~rate ~n_threads () =
  if rate <= 0.0 || remaining <= 0 then no_eval
  else begin
    let n = float_of_int remaining in
    let w = float_of_int n_threads in
    let t0 = n /. rate /. w in
    let option mode =
      let c = CM.compile_time model mode n_instrs in
      (* [rate] was measured in [current_mode]; the model's speedups
         are vs bytecode. Scale by the *relative* gain, otherwise an
         already-upgraded pipeline credits the candidate with the full
         vs-bytecode speedup (e.g. Unopt->Opt looked 5x instead of
         5/3.6 = 1.39x) and upgrades far too eagerly. *)
      let r = rate *. (CM.speedup model mode /. CM.speedup model current_mode) in
      (* one thread compiles; the others keep processing during c *)
      let leftover = Stdlib.max (n -. ((w -. 1.0) *. rate *. c)) 0.0 in
      c +. (leftover /. r /. w)
    in
    (* blacklisted candidates (a mode whose compilation failed) are
       priced out rather than special-cased: infinity never beats the
       status quo, so the controller never retries a dead mode *)
    let candidate mode ~allowed =
      {
        cand_mode = mode;
        cand_seconds = (if allowed then option mode else Float.infinity);
        cand_blacklisted = not allowed;
      }
    in
    match current_mode with
    | CM.Opt -> { ev_stay_seconds = t0; ev_candidates = []; ev_decision = Do_nothing }
    | CM.Unopt ->
      let c2 = candidate CM.Opt ~allowed:allow_opt in
      {
        ev_stay_seconds = t0;
        ev_candidates = [ c2 ];
        ev_decision = (if c2.cand_seconds < t0 then Compile CM.Opt else Do_nothing);
      }
    | CM.Bytecode ->
      let c1 = candidate CM.Unopt ~allowed:allow_unopt
      and c2 = candidate CM.Opt ~allowed:allow_opt in
      let t1 = c1.cand_seconds and t2 = c2.cand_seconds in
      {
        ev_stay_seconds = t0;
        ev_candidates = [ c1; c2 ];
        ev_decision =
          (if t1 <= t2 && t1 < t0 then Compile CM.Unopt
           else if t2 < t1 && t2 < t0 then Compile CM.Opt
           else Do_nothing);
      }
  end

let extrapolate ?allow_unopt ?allow_opt ~model ~current_mode ~n_instrs ~remaining ~rate
    ~n_threads () =
  (evaluate ?allow_unopt ?allow_opt ~model ~current_mode ~n_instrs ~remaining ~rate
     ~n_threads ())
    .ev_decision

(* Fig. 7 in the flight recorder: what the controller saw, what it
   projected for each option, and what it chose. *)
let log_eval t ~current_mode ~rate ev =
  let module Log = Aeq_obs.Event_log in
  let action, reason =
    match ev.ev_decision with
    | Compile m -> (Log.Promote (CM.mode_name m), "extrapolated win")
    | Do_nothing ->
      ( Log.Stay,
        if current_mode = CM.Opt then "already optimized"
        else if rate <= 0.0 then "no rate sample yet"
        else if List.for_all (fun c -> c.cand_blacklisted) ev.ev_candidates
                && ev.ev_candidates <> []
        then "all candidates blacklisted"
        else "status quo optimal" )
  in
  Log.decision ~pipeline:t.pipeline
    {
      Log.d_mode = CM.mode_name current_mode;
      d_processed = Progress.processed t.progress;
      d_remaining = Progress.remaining t.progress;
      d_rate = rate;
      d_stay_seconds = ev.ev_stay_seconds;
      d_candidates =
        List.map
          (fun c ->
            {
              Log.c_mode = CM.mode_name c.cand_mode;
              c_total_seconds = c.cand_seconds;
              c_blacklisted = c.cand_blacklisted;
            })
          ev.ev_candidates;
      d_action = action;
      d_reason = reason;
    }

let maybe_decide t =
  let now = Aeq_util.Clock.now () in
  if now -. Progress.start_time t.progress < min_delay_seconds then Do_nothing
  else if Atomic.get (Handle.compiling t.handle) then Do_nothing
  else if not (Atomic.compare_and_set t.evaluating false true) then Do_nothing
  else begin
    let current_mode = Handle.mode t.handle in
    let rate = Progress.avg_rate t.progress in
    let ev =
      evaluate ~model:t.model
        ~allow_unopt:(not (Handle.blacklisted t.handle CM.Unopt))
        ~allow_opt:(not (Handle.blacklisted t.handle CM.Opt))
        ~current_mode
        ~n_instrs:(Handle.n_instrs t.handle)
        ~remaining:(Progress.remaining t.progress)
        ~rate ~n_threads:t.n_threads ()
    in
    if Aeq_obs.Control.enabled () && rate > 0.0 then log_eval t ~current_mode ~rate ev;
    match ev.ev_decision with
    | Do_nothing ->
      Atomic.set t.evaluating false;
      Do_nothing
    | Compile _ as d ->
      Atomic.set (Handle.compiling t.handle) true;
      d
  end

let finish_compile t =
  Progress.reset_rates t.progress;
  Atomic.set (Handle.compiling t.handle) false;
  Atomic.set t.evaluating false
