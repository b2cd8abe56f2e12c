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

(* Seconds to finish [n] remaining rows by compiling to [mode]: one
   thread compiles for the modelled time while the others keep
   processing at [rate], then the rest runs at [mode]'s speed. [rate]
   was measured in [current_mode]; the model's speedups are vs
   bytecode, so it is scaled by the *relative* gain, otherwise an
   already-upgraded pipeline credits the candidate with the full
   vs-bytecode speedup (e.g. Unopt->Opt looked 5x instead of 5/3.6 =
   1.39x) and upgrades far too eagerly. Inlined, so that the
   per-morsel decision keeps its floats unboxed. *)
let[@inline] option_seconds ~model ~current_mode ~n_instrs ~n ~rate ~w mode =
  let c = CM.compile_time model mode n_instrs in
  let r = rate *. (CM.speedup model mode /. CM.speedup model current_mode) in
  let leftover = n -. ((w -. 1.0) *. rate *. c) in
  let leftover = if leftover >= 0.0 then leftover else 0.0 in
  c +. (leftover /. r /. w)

(* Fig. 7's choice over the projected totals: staying costs [t0],
   compiling to Unopt [t1] and to Opt [t2]. A blacklisted candidate (a
   mode whose compilation failed) is priced at infinity rather than
   special-cased: infinity never beats the status quo, so the
   controller never retries a dead mode. *)
let[@inline] choose current_mode ~t0 ~t1 ~t2 =
  match current_mode with
  | CM.Opt -> Do_nothing
  | CM.Unopt -> if t2 < t0 then Compile CM.Opt else Do_nothing
  | CM.Bytecode ->
    if t1 <= t2 && t1 < t0 then Compile CM.Unopt
    else if t2 < t1 && t2 < t0 then Compile CM.Opt
    else Do_nothing

(* The controller's decision, the one path every caller takes: no
   record, list or closure, and its floats stay unboxed, so the check
   after every morsel allocates next to nothing. [evaluate] adds the
   working that the event log shows. *)
let decide ~allow_unopt ~allow_opt ~model ~current_mode ~n_instrs ~remaining ~rate ~n_threads =
  if rate <= 0.0 || remaining <= 0 || current_mode = CM.Opt then Do_nothing
  else begin
    let n = float_of_int remaining in
    let w = float_of_int n_threads in
    let t0 = n /. rate /. w in
    let t1 =
      if allow_unopt && current_mode = CM.Bytecode then
        option_seconds ~model ~current_mode ~n_instrs ~n ~rate ~w CM.Unopt
      else Float.infinity
    in
    let t2 =
      if allow_opt then option_seconds ~model ~current_mode ~n_instrs ~n ~rate ~w CM.Opt
      else Float.infinity
    in
    choose current_mode ~t0 ~t1 ~t2
  end

let evaluate ?(allow_unopt = true) ?(allow_opt = true) ~model ~current_mode ~n_instrs
    ~remaining ~rate ~n_threads () =
  if rate <= 0.0 || remaining <= 0 then no_eval
  else begin
    let n = float_of_int remaining in
    let w = float_of_int n_threads in
    let t0 = n /. rate /. w in
    let candidate mode ~allowed =
      {
        cand_mode = mode;
        cand_seconds =
          (if allowed then option_seconds ~model ~current_mode ~n_instrs ~n ~rate ~w mode
           else Float.infinity);
        cand_blacklisted = not allowed;
      }
    in
    let candidates =
      match current_mode with
      | CM.Opt -> []
      | CM.Unopt -> [ candidate CM.Opt ~allowed:allow_opt ]
      | CM.Bytecode ->
        [ candidate CM.Unopt ~allowed:allow_unopt; candidate CM.Opt ~allowed:allow_opt ]
    in
    {
      ev_stay_seconds = t0;
      ev_candidates = candidates;
      ev_decision =
        decide ~allow_unopt ~allow_opt ~model ~current_mode ~n_instrs ~remaining ~rate
          ~n_threads;
    }
  end

let extrapolate ?(allow_unopt = true) ?(allow_opt = true) ~model ~current_mode ~n_instrs
    ~remaining ~rate ~n_threads () =
  decide ~allow_unopt ~allow_opt ~model ~current_mode ~n_instrs ~remaining ~rate ~n_threads

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
    let allow_unopt = not (Handle.blacklisted t.handle CM.Unopt)
    and allow_opt = not (Handle.blacklisted t.handle CM.Opt) in
    let n_instrs = Handle.n_instrs t.handle and remaining = Progress.remaining t.progress in
    let decision =
      decide ~allow_unopt ~allow_opt ~model:t.model ~current_mode ~n_instrs ~remaining ~rate
        ~n_threads:t.n_threads
    in
    if Aeq_obs.Control.enabled () && rate > 0.0 then
      log_eval t ~current_mode ~rate
        (evaluate ~model:t.model ~allow_unopt ~allow_opt ~current_mode ~n_instrs ~remaining
           ~rate ~n_threads:t.n_threads ());
    match decision with
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
