module CM = Aeq_backend.Cost_model
module Cal = Aeq_backend.Calibration

type decision = Do_nothing | Compile of CM.mode

type candidate = {
  cand_mode : CM.mode;
  cand_speedup : float;
  cand_seconds : float;
  cand_blacklisted : bool;
}

type eval = {
  ev_stay_seconds : float;
  ev_candidates : candidate list;
  ev_decision : decision;
}

type t = {
  estimate : Cal.estimate;
  handle : Handle.t;
  progress : Progress.t;
  n_threads : int;
  pipeline : int;
  start_ns : int;
  compile_unopt : float;
  compile_opt : float;
      (* priced once per pipeline: a decision reads them unboxed *)
  evaluating : bool Atomic.t;
  mutable switched_from : CM.mode;
  mutable pre_rate : int;
      (* the mode the last promotion left and its rate there, 0 once
         sampled; touched only by the thread holding [evaluating] *)
}

let min_delay_ns = 1_000_000

let create ?(pipeline = 0) ~model ~estimate ~handle ~progress ~n_threads () =
  (* a variant an earlier execution cached switches in for free *)
  let compile mode cached =
    if Atomic.get cached = None then CM.compile_time model mode (Handle.n_instrs handle) else 0.0
  in
  {
    estimate;
    handle;
    progress;
    n_threads;
    pipeline;
    start_ns = Aeq_util.Clock.now_ns ();
    compile_unopt = compile CM.Unopt handle.Handle.c.Handle.unopt;
    compile_opt = compile CM.Opt handle.Handle.c.Handle.opt;
    evaluating = Atomic.make false;
    switched_from = CM.Bytecode;
    pre_rate = 0;
  }

let no_eval =
  { ev_stay_seconds = infinity; ev_candidates = []; ev_decision = Do_nothing }

let[@inline] speedup (s : Cal.t) = function
  | CM.Bytecode -> 1.0
  | CM.Unopt -> s.Cal.speedup_unopt
  | CM.Opt -> s.Cal.speedup_opt

(* Seconds to finish [n] remaining rows by compiling to [mode] in [c]
   seconds: one thread compiles while the others keep processing at
   [rate], then the rest runs at [mode]'s speed. [rate] was measured
   in [current_mode] and the speedups are vs bytecode, so it is scaled
   by the *relative* gain: crediting the full vs-bytecode speedup
   upgrades an already-upgraded pipeline far too eagerly. Inlined, so
   the per-morsel decision keeps its floats unboxed. *)
let[@inline] option_seconds ~speedups ~current_mode ~n ~rate ~w ~c mode =
  let r = rate *. (speedup speedups mode /. speedup speedups current_mode) in
  let leftover = n -. ((w -. 1.0) *. rate *. c) in
  let leftover = if leftover >= 0.0 then leftover else 0.0 in
  c +. (leftover /. r /. w)

(* Fig. 7's choice over the projected totals: staying costs [t0],
   compiling to Unopt [t1] and to Opt [t2]. A blacklisted candidate (a
   mode whose compilation failed) is priced at infinity rather than
   special-cased: infinity never beats the status quo, so the
   controller never retries a dead mode. *)
let[@inline] choose current_mode ~(t0 : float) ~(t1 : float) ~(t2 : float) =
  match current_mode with
  | CM.Opt -> Do_nothing
  | CM.Unopt -> if t2 < t0 then Compile CM.Opt else Do_nothing
  | CM.Bytecode ->
    if t1 <= t2 && t1 < t0 then Compile CM.Unopt
    else if t2 < t1 && t2 < t0 then Compile CM.Opt
    else Do_nothing

(* The controller's decision, the one path every caller takes: no
   record, list or closure, and inlined, so its floats stay unboxed
   and the check after every morsel allocates nothing. [evaluate]
   adds the working that the event log shows. *)
let[@inline] decide ~allow_unopt ~allow_opt ~speedups ~compile_unopt ~compile_opt ~current_mode
    ~remaining ~rate ~n_threads =
  if rate <= 0.0 || remaining <= 0 || current_mode = CM.Opt then Do_nothing
  else begin
    let n = float_of_int remaining in
    let w = float_of_int n_threads in
    let t0 = n /. rate /. w in
    let t1 =
      if allow_unopt && current_mode = CM.Bytecode then
        option_seconds ~speedups ~current_mode ~n ~rate ~w ~c:compile_unopt CM.Unopt
      else Float.infinity
    in
    let t2 =
      if allow_opt then option_seconds ~speedups ~current_mode ~n ~rate ~w ~c:compile_opt CM.Opt
      else Float.infinity
    in
    choose current_mode ~t0 ~t1 ~t2
  end

let evaluate ?(allow_unopt = true) ?(allow_opt = true) ~speedups ~compile_unopt ~compile_opt
    ~current_mode ~remaining ~rate ~n_threads () =
  if rate <= 0.0 || remaining <= 0 then no_eval
  else begin
    let n = float_of_int remaining and w = float_of_int n_threads in
    let candidate mode allowed c =
      {
        cand_mode = mode;
        cand_speedup = speedup speedups mode;
        cand_seconds =
          (if allowed then option_seconds ~speedups ~current_mode ~n ~rate ~w ~c mode
           else Float.infinity);
        cand_blacklisted = not allowed;
      }
    in
    let candidates =
      match current_mode with
      | CM.Opt -> []
      | CM.Unopt -> [ candidate CM.Opt allow_opt compile_opt ]
      | CM.Bytecode ->
        [ candidate CM.Unopt allow_unopt compile_unopt; candidate CM.Opt allow_opt compile_opt ]
    in
    {
      ev_stay_seconds = n /. rate /. w;
      ev_candidates = candidates;
      ev_decision =
        decide ~allow_unopt ~allow_opt ~speedups ~compile_unopt ~compile_opt ~current_mode
          ~remaining ~rate ~n_threads;
    }
  end

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
              c_speedup = c.cand_speedup;
              c_total_seconds = c.cand_seconds;
              c_blacklisted = c.cand_blacklisted;
            })
          ev.ev_candidates;
      d_action = action;
      d_reason = reason;
    }

let maybe_decide t =
  if Aeq_util.Clock.now_ns () - t.start_ns < min_delay_ns then Do_nothing
  else if Atomic.get (Handle.compiling t.handle) then Do_nothing
  else if not (Atomic.compare_and_set t.evaluating false true) then Do_nothing
  else begin
    let current_mode = Handle.mode t.handle and irate = Progress.avg_rate t.progress in
    (* one sample per switch, to this engine's estimate: the first
       post-switch rate against the rate before *)
    if t.pre_rate > 0 && irate > 0 then begin
      Cal.observe t.estimate ~from:t.switched_from ~to_:current_mode
        ~ratio:(float_of_int irate /. float_of_int t.pre_rate);
      t.pre_rate <- 0
    end;
    let rate = float_of_int irate in
    let allow_unopt = not (Handle.blacklisted t.handle CM.Unopt)
    and allow_opt = not (Handle.blacklisted t.handle CM.Opt) in
    let remaining = Progress.remaining t.progress and speedups = Cal.current t.estimate in
    let decision =
      decide ~allow_unopt ~allow_opt ~speedups ~compile_unopt:t.compile_unopt
        ~compile_opt:t.compile_opt ~current_mode ~remaining ~rate ~n_threads:t.n_threads
    in
    if Aeq_obs.Control.enabled () && rate > 0.0 then
      log_eval t ~current_mode ~rate
        (evaluate ~speedups ~compile_unopt:t.compile_unopt ~compile_opt:t.compile_opt
           ~allow_unopt ~allow_opt ~current_mode ~remaining ~rate ~n_threads:t.n_threads ());
    match decision with
    | Do_nothing ->
      Atomic.set t.evaluating false;
      Do_nothing
    | Compile _ as d ->
      t.switched_from <- current_mode;
      Atomic.set (Handle.compiling t.handle) true;
      d
  end

let finish_compile t =
  if Handle.mode t.handle <> t.switched_from then begin
    t.pre_rate <- Progress.avg_rate t.progress;
    Progress.switch t.progress
  end;
  Atomic.set (Handle.compiling t.handle) false;
  Atomic.set t.evaluating false
