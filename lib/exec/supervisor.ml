module Clock = Aeq_util.Clock
module Probe = Aeq_util.Probe
module Waiter = Aeq_util.Waiter
module Obs = Aeq_obs

(* A supervised domain is an exception barrier around a long-running
   body plus a restart loop. The body crashing does NOT kill the
   domain: the barrier catches, the owner's [on_crash] reclaims
   whatever the body abandoned (complete its ticket, fix a counter),
   and — within the restart budget — the same domain re-enters the
   body after an exponentially backed-off pause. Restarting in-domain
   rather than re-spawning keeps the domain identity (and any
   domain-local state the body re-establishes itself) and costs
   nothing when no crash ever happens.

   Budget: more than [max_restarts] crashes inside a sliding
   [window_seconds] means the body is not recovering — a crash loop.
   Restarting harder would burn CPU and flood the log, so the
   supervisor gives up: state [Failed], [on_give_up] fires, and the
   owner surfaces a degraded health state instead of a wedge. *)

type policy = {
  max_restarts : int;
  window_seconds : float;
  backoff_base : float;
  backoff_max : float;
}

let default_policy =
  {
    max_restarts = 8;
    window_seconds = 10.0;
    backoff_base = 0.002;
    backoff_max = 0.25;
  }

type state = Running | Backing_off | Failed | Stopped

let state_name = function
  | Running -> "running"
  | Backing_off -> "backing_off"
  | Failed -> "failed"
  | Stopped -> "stopped"

type crash_action = Restarted | Gave_up

type crash = {
  cr_at : float;
  cr_domain : string;
  cr_exn : string;
  cr_restarts : int; (* restarts this supervisor has consumed, incl. this one *)
  cr_action : crash_action;
}

(* Process-wide crash log on the shared bounded ring: a crash loop
   cannot grow memory, and every crash in the process lands here
   whatever supervisor caught it — post-mortems want one timeline, not
   one per domain. *)
let () = Aeq_race.declare "supervisor.state" (Aeq_race.Lock "supervisor.lock")

let log : crash Obs.Ring.t = Obs.Ring.create ~start:(fun c -> c.cr_at) ()

let crash_log () = List.rev (Obs.Ring.snapshot log)

let clear_crash_log () = Obs.Ring.clear log

let obs_count name ~help ~domain =
  if Obs.Control.enabled () then
    Obs.Metrics.inc
      (Obs.Metrics.counter name ~help ~labels:[ ("domain", domain) ])

type t = {
  sv_name : string;
  sv_policy : policy;
  sv_body : unit -> unit;
  sv_on_crash : exn -> unit;
  sv_on_give_up : exn -> unit;
  sv_lock : Aeq_race.Lock.t;
  sv_loc : Aeq_race.location;
  mutable sv_state : state;
  mutable sv_crash_times : float list; (* newest-first, pruned to the window *)
  mutable sv_crashes : int;
  mutable sv_restarts : int;
  mutable sv_stop : bool;
  sv_waiter : Waiter.t;
  mutable sv_domain : unit Domain.t option;
}

let validate_policy p =
  if p.max_restarts < 0 then invalid_arg "Supervisor: max_restarts must be >= 0";
  if p.window_seconds <= 0.0 then
    invalid_arg "Supervisor: window_seconds must be > 0";
  if p.backoff_base < 0.0 || p.backoff_max < 0.0 then
    invalid_arg "Supervisor: backoff must be >= 0"

let create ?(policy = default_policy) ~name ?(on_crash = fun _ -> ())
    ?(on_give_up = fun _ -> ()) body =
  validate_policy policy;
  {
    sv_name = name;
    sv_policy = policy;
    sv_body = body;
    sv_on_crash = on_crash;
    sv_on_give_up = on_give_up;
    sv_lock = Aeq_race.Lock.create "supervisor.lock";
    sv_loc = Aeq_race.locate "supervisor.state";
    sv_state = Running;
    sv_crash_times = [];
    sv_crashes = 0;
    sv_restarts = 0;
    sv_stop = false;
    sv_waiter = Waiter.create ();
    sv_domain = None;
  }

let locked t f = Aeq_race.Lock.with_ t.sv_lock f

let state t =
  locked t (fun () ->
      Aeq_race.read ~site:"supervisor.state" t.sv_loc;
      t.sv_state)

let crashes t =
  locked t (fun () ->
      Aeq_race.read ~site:"supervisor.crashes" t.sv_loc;
      t.sv_crashes)

let restarts t =
  locked t (fun () ->
      Aeq_race.read ~site:"supervisor.restarts" t.sv_loc;
      t.sv_restarts)

let name t = t.sv_name

let health_reason t =
  match state t with
  | Running | Stopped -> None
  | Backing_off ->
    Some (Printf.sprintf "%s crashed; restarting under backoff" t.sv_name)
  | Failed ->
    Some (Printf.sprintf "%s failed: restart budget exhausted" t.sv_name)

(* Backoff sleep that stays responsive: a [stop] wakes the waiter, and
   under the deterministic simulator the wait spins through the
   scheduler's yield point instead of blocking the token. *)
let backoff_wait t seconds =
  let deadline = Clock.now () +. seconds in
  let rec go () =
    if
      locked t (fun () ->
          Aeq_race.read ~site:"supervisor.backoff" t.sv_loc;
          t.sv_stop)
    then ()
    else
      let remaining = deadline -. Clock.now () in
      if remaining <= 0.0 then ()
      else if Probe.simulating () then begin
        Probe.yield "supervisor.backoff";
        go ()
      end
      else begin
        ignore (Waiter.wait t.sv_waiter remaining);
        go ()
      end
  in
  go ()

(* One crash: record, reclaim, and decide restart vs give-up. Returns
   [true] when the body should run again. Runs in the crashed domain
   itself, after the body's stack has fully unwound — so [on_crash]
   may take the owner's locks (the crash released them on the way up;
   critical sections are [Fun.protect]ed throughout the engine). *)
let handle_crash t exn =
  Probe.yield "supervisor.crash";
  obs_count "aeq_supervisor_crashes_total"
    ~help:"Unstructured exceptions caught by a domain supervisor barrier."
    ~domain:t.sv_name;
  (* reclaim must never kill the supervisor: a buggy reclaim hook
     downgrades to "crash recorded, nothing reclaimed" *)
  (try t.sv_on_crash exn with _ -> ());
  let now = Clock.now () in
  let policy, restart, n_restarts =
    locked t (fun () ->
        Aeq_race.write ~site:"supervisor.handle_crash" t.sv_loc;
        let policy = t.sv_policy in
        t.sv_crashes <- t.sv_crashes + 1;
        let horizon = now -. policy.window_seconds in
        t.sv_crash_times <-
          now :: List.filter (fun at -> at >= horizon) t.sv_crash_times;
        if t.sv_stop then begin
          t.sv_state <- Stopped;
          (policy, false, t.sv_restarts)
        end
        else if List.length t.sv_crash_times > policy.max_restarts then begin
          t.sv_state <- Failed;
          (policy, false, t.sv_restarts)
        end
        else begin
          t.sv_state <- Backing_off;
          t.sv_restarts <- t.sv_restarts + 1;
          (policy, true, t.sv_restarts)
        end)
  in
  let action =
    if restart then Restarted
    else
      match state t with
      | Failed -> Gave_up
      | _ -> Restarted (* stop raced the crash: log it as handled *)
  in
  Obs.Ring.push log
    {
      cr_at = now;
      cr_domain = t.sv_name;
      cr_exn = Printexc.to_string exn;
      cr_restarts = n_restarts;
      cr_action = action;
    };
  if restart then begin
    obs_count "aeq_supervisor_restarts_total"
      ~help:"Supervised domain restarts after a crash." ~domain:t.sv_name;
    (* exponential backoff: 1 restart consumed → base, then doubling *)
    let n = Stdlib.max 0 (List.length t.sv_crash_times - 1) in
    let pause =
      Stdlib.min policy.backoff_max (policy.backoff_base *. (2.0 ** float_of_int n))
    in
    backoff_wait t pause;
    let still_go =
      locked t (fun () ->
          Aeq_race.write ~site:"supervisor.post_backoff" t.sv_loc;
          if t.sv_stop then begin
            t.sv_state <- Stopped;
            false
          end
          else begin
            t.sv_state <- Running;
            true
          end)
    in
    if still_go then Probe.yield "supervisor.restart";
    still_go
  end
  else begin
    if action = Gave_up then begin
      obs_count "aeq_supervisor_gave_up_total"
        ~help:"Supervisors that exhausted their restart budget." ~domain:t.sv_name;
      try t.sv_on_give_up exn with _ -> ()
    end;
    false
  end

(* The barrier + restart loop. [run] executes it inline in the calling
   domain — what {!start} spawns, and what simulator tasks call
   directly so every supervised step stays on the sim scheduler. *)
let run t =
  let rec loop () =
    match t.sv_body () with
    | () ->
      locked t (fun () ->
          Aeq_race.write ~site:"supervisor.body_done" t.sv_loc;
          t.sv_state <- Stopped)
    | exception exn -> if handle_crash t exn then loop ()
  in
  loop ()

let start t =
  locked t (fun () ->
      Aeq_race.write ~site:"supervisor.start" t.sv_loc;
      if t.sv_domain <> None then invalid_arg "Supervisor.start: already started";
      t.sv_domain <- Some (Aeq_race.spawn (fun () -> run t)))

let spawn ?policy ~name ?on_crash ?on_give_up body =
  let t = create ?policy ~name ?on_crash ?on_give_up body in
  start t;
  t

(* Ask the loop to exit: no restart after the current body run (the
   owner separately makes the body itself return — its stop flag), and
   any in-progress backoff is cut short. *)
let stop t =
  locked t (fun () ->
      Aeq_race.write ~site:"supervisor.stop" t.sv_loc;
      t.sv_stop <- true);
  Waiter.wake t.sv_waiter

let join t =
  let d =
    locked t (fun () ->
        Aeq_race.write ~site:"supervisor.join" t.sv_loc;
        let d = t.sv_domain in
        t.sv_domain <- None;
        d)
  in
  (match d with Some d -> Aeq_race.join d | None -> ());
  Waiter.dispose t.sv_waiter
