type action = Stay | Promote of string

type candidate = {
  c_mode : string;
  c_speedup : float;
  c_total_seconds : float;
  c_blacklisted : bool;
}

type decision = {
  d_mode : string;
  d_processed : int;
  d_remaining : int;
  d_rate : float;
  d_stay_seconds : float;
  d_candidates : candidate list;
  d_action : action;
  d_reason : string;
}

type kind = Span of string | Decision of decision

type event = { kind : kind; domain : int; pipeline : int; t0 : float; t1 : float }

let ring = Ring.create ~start:(fun e -> e.t0) ()

let push kind ~pipeline ~t0 ~t1 =
  Ring.push ring { kind; domain = (Domain.self () :> int); pipeline; t0; t1 }

let span ?(pipeline = -1) name ~t0 ~t1 =
  if Control.enabled () then push (Span name) ~pipeline ~t0 ~t1

let with_span ?pipeline name f =
  if not (Control.enabled ()) then f ()
  else begin
    let t0 = Aeq_util.Clock.now () in
    Fun.protect ~finally:(fun () -> span ?pipeline name ~t0 ~t1:(Aeq_util.Clock.now ())) f
  end

let decision ~pipeline d =
  if Control.enabled () then begin
    let now = Aeq_util.Clock.now () in
    push (Decision d) ~pipeline ~t0:now ~t1:now
  end

let snapshot () = Ring.snapshot ring

let clear () = Ring.clear ring

let dropped () = Ring.dropped ring
