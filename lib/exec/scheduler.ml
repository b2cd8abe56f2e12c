module Clock = Aeq_util.Clock
module QE = Query_error
module Obs = Aeq_obs

(* Event counters mirrored into the metrics registry. Registration is
   get-or-create and these fire at most once per query, so the lookup
   cost is irrelevant; the registry mutex is a leaf lock, safe to take
   under [t.lock]. *)
let obs_bump name ~help =
  if Obs.Control.enabled () then
    Obs.Metrics.inc (Obs.Metrics.counter ("aeq_scheduler_" ^ name ^ "_total") ~help)

(* Guarded-by declarations for the race detector. [t.lock] covers three
   logical locations so reports say *what* raced, not just "scheduler
   state": the admission queues, the counters, and the in-flight set.
   Each ticket's mutable fields are their own location under that
   ticket's lock. *)
let () =
  Aeq_race.declare "sched.queues" (Aeq_race.Lock "sched.lock");
  Aeq_race.declare "sched.counters" (Aeq_race.Lock "sched.lock");
  Aeq_race.declare "sched.running" (Aeq_race.Lock "sched.lock");
  Aeq_race.declare "sched.ticket" (Aeq_race.Lock "sched.ticket.lock")

type priority = Low | Normal | High

let priority_name = function Low -> "low" | Normal -> "normal" | High -> "high"

(* dispatch order: highest class first, FIFO within a class *)
let queue_index = function High -> 0 | Normal -> 1 | Low -> 2

type config = { queue_capacity : int; shed_queue_depth : int }

let default_config = { queue_capacity = 64; shed_queue_depth = 48 }

type outcome = (Driver.result, QE.t) result

type exec = mode:Driver.mode -> cancel:Cancel.t -> Driver.result

type state = Queued | Running | Done of outcome

(* Lock order, everywhere: [t.lock] before [tk_lock], never the
   reverse. *)
type ticket = {
  tk_sched : t; (* queued expiry at [poll]/[await] takes its lock *)
  tk_exec : exec;
  tk_mode : Driver.mode;
  tk_priority : priority;
  tk_deadline : float option; (* absolute, against Clock.now *)
  tk_submitted : float;
  tk_cancel : Cancel.t;
  tk_lock : Aeq_race.Lock.t;
  tk_cond : Condition.t;
  tk_loc : Aeq_race.location;
  mutable tk_state : state;
      (* [Queued] exactly while the ticket is live in a queue: a
         pool worker marks it [Running] when it claims it, and an
         in-process ticket is [Running] from its admission *)
  mutable tk_started : float; (* -1. until dispatched *)
  mutable tk_degraded : bool;
}

and t = {
  cfg : config;
  pool : Pool.t; (* its workers serve the queued tickets *)
  lock : Aeq_race.Lock.t;
  queues_loc : Aeq_race.location;
  counters_loc : Aeq_race.location;
  running_loc : Aeq_race.location;
  queues : ticket Queue.t array; (* [High; Normal; Low] *)
  mutable queued : int; (* live (state Queued) tickets across queues *)
  mutable shut : bool; (* every submission is refused *)
  mutable draining : bool; (* admission closed; in-flight may finish *)
  mutable running : ticket list;
      (* the in-flight set: tickets pool workers or their in-process
         callers are serving *)
  (* counters *)
  mutable n_admitted : int;
  mutable n_rejected : int;
  mutable n_shed : int;
  mutable n_expired : int;
  mutable n_completed : int;
  mutable n_failed : int;
  mutable n_degraded : int;
  mutable n_crashed_tickets : int;
  mutable max_depth : int;
  mutable total_wait : float;
  mutable n_waits : int;
  mutable max_wait : float;
  quiet_waiter : Aeq_util.Waiter.t;
      (* poked when in-flight work finishes while draining or shut;
         [drain] and [shutdown] sleep on it *)
}

type stats = {
  admitted : int;
  rejected : int;
  shed : int;
  expired : int;
  in_flight : int;
  completed : int;
  failed : int;
  degraded : int;
  queue_depth : int;
  max_queue_depth : int;
  avg_wait_seconds : float;
  max_wait_seconds : float;
  crashed_tickets : int;
  domain_crashes : int;
}

let with_lock m f = Aeq_race.Lock.with_ m f

(* ---- ticket helpers -------------------------------------------------- *)

let is_done tk =
  with_lock tk.tk_lock (fun () ->
      Aeq_race.read ~site:"sched.is_done" tk.tk_loc;
      match tk.tk_state with Done _ -> true | Queued | Running -> false)

let complete tk outcome =
  with_lock tk.tk_lock (fun () ->
      Aeq_race.write ~site:"sched.complete" tk.tk_loc;
      match tk.tk_state with
      | Done _ -> () (* first completion wins *)
      | Queued | Running ->
        tk.tk_state <- Done outcome;
        Condition.broadcast tk.tk_cond)

(* ---- queued expiry --------------------------------------------------- *)

(* Under t.lock: answer a still-queued ticket whose deadline has passed.
   Its queue entry stays put — [pop_live] and [shed_victim] skip
   completed tickets. There is no timer: this runs wherever the
   scheduler already touches the queue (every [submit] and dispatch)
   and at [poll]/[await] of the ticket itself. *)
let expire t now tk =
  match tk.tk_deadline with
  | Some d when now > d ->
    let expired =
      with_lock tk.tk_lock (fun () ->
          Aeq_race.write ~site:"sched.expire" tk.tk_loc;
          match tk.tk_state with
          | Queued ->
            tk.tk_state <- Done (Error (QE.Rejected "deadline expired in admission queue"));
            Condition.broadcast tk.tk_cond;
            true
          | Running | Done _ -> false)
    in
    if expired then begin
      Aeq_race.write ~site:"sched.expire" t.queues_loc;
      Aeq_race.write ~site:"sched.expire" t.counters_loc;
      t.queued <- t.queued - 1;
      t.n_expired <- t.n_expired + 1;
      obs_bump "expired" ~help:"Queries whose deadline passed while queued."
    end
  | _ -> ()

(* under t.lock *)
let expire_queued t =
  Aeq_race.read ~site:"sched.expire_queued" t.queues_loc;
  let now = Clock.now () in
  Array.iter (Queue.iter (expire t now)) t.queues

let expire_if_overdue tk =
  match tk.tk_deadline with
  | Some d when Clock.now () > d && not (is_done tk) ->
    let t = tk.tk_sched in
    with_lock t.lock (fun () -> expire t (Clock.now ()) tk)
  | _ -> ()

let await tk =
  expire_if_overdue tk;
  with_lock tk.tk_lock (fun () ->
      let rec wait () =
        Aeq_race.read ~site:"sched.await" tk.tk_loc;
        match tk.tk_state with
        | Done o -> o
        | Queued | Running ->
          Aeq_race.Lock.wait tk.tk_cond tk.tk_lock;
          wait ()
      in
      wait ())

let poll tk =
  expire_if_overdue tk;
  with_lock tk.tk_lock (fun () ->
      Aeq_race.read ~site:"sched.poll" tk.tk_loc;
      match tk.tk_state with Done o -> Some o | Queued | Running -> None)

let cancel tk = Cancel.cancel tk.tk_cancel

let wait_seconds tk =
  with_lock tk.tk_lock (fun () ->
      Aeq_race.read ~site:"sched.wait_seconds" tk.tk_loc;
      if tk.tk_started < 0.0 then -1.0 else tk.tk_started -. tk.tk_submitted)

let was_degraded tk =
  with_lock tk.tk_lock (fun () ->
      Aeq_race.read ~site:"sched.was_degraded" tk.tk_loc;
      tk.tk_degraded)

(* ---- serving on pool workers ------------------------------------------ *)

(* under t.lock: the oldest live ticket of the first non-empty queue
   among [qis], popped; completed tickets are dropped on the way *)
let pop_live t qis =
  let rec from_queue q =
    match Queue.take_opt q with
    | None -> None
    | Some tk -> if is_done tk then from_queue q else Some tk
  in
  List.find_map (fun qi -> from_queue t.queues.(qi)) qis

(* Under t.lock: a worker takes [tk] (already popped). Marks it
   running, records its queue wait, puts it in the in-flight set and
   picks its effective mode: under overload, no compilation spend. *)
let claim t tk =
  t.queued <- t.queued - 1;
  Aeq_race.write ~site:"sched.claim" t.counters_loc;
  Aeq_race.write ~site:"sched.claim" t.running_loc;
  let now = Clock.now () in
  let wait = now -. tk.tk_submitted in
  t.total_wait <- t.total_wait +. wait;
  t.n_waits <- t.n_waits + 1;
  if wait > t.max_wait then t.max_wait <- wait;
  let overloaded = t.queued > t.cfg.shed_queue_depth in
  let eff_mode = if overloaded then Driver.Bytecode else tk.tk_mode in
  if eff_mode <> tk.tk_mode then begin
    t.n_degraded <- t.n_degraded + 1;
    obs_bump "degraded" ~help:"Executions forced to bytecode-only."
  end;
  with_lock tk.tk_lock (fun () ->
      Aeq_race.write ~site:"sched.claim" tk.tk_loc;
      tk.tk_state <- Running;
      tk.tk_started <- now;
      tk.tk_degraded <- eff_mode <> tk.tk_mode);
  t.running <- tk :: t.running;
  eff_mode

(* Answer the in-flight [tk] with [outcome] and count it, unless it
   was answered already (its worker's finish and reclaim cannot both
   count it). [quiet_waiter] is poked only while a [drain] or
   [shutdown] may sleep on it: both set their flag under t.lock before
   they wait, and [wait_until] re-polls every 10 ms anyway, so the
   common finish makes no pipe write. *)
let finish ?(crashed = false) t tk outcome =
  let owned, waited =
    with_lock t.lock (fun () ->
        Aeq_race.write ~site:"sched.finish" t.counters_loc;
        Aeq_race.write ~site:"sched.finish" t.running_loc;
        Aeq_race.read ~site:"sched.finish" t.queues_loc;
        let owned = List.memq tk t.running in
        if owned then begin
          t.running <- List.filter (fun tk' -> tk' != tk) t.running;
          if crashed then begin
            t.n_crashed_tickets <- t.n_crashed_tickets + 1;
            obs_bump "crashed_tickets"
              ~help:"In-flight tickets completed as Worker_crashed after their worker crashed."
          end;
          match outcome with
          | Ok _ ->
            t.n_completed <- t.n_completed + 1;
            obs_bump "completed" ~help:"Queries finished with rows."
          | Error _ ->
            t.n_failed <- t.n_failed + 1;
            obs_bump "failed" ~help:"Queries finished with a structured error."
        end;
        (owned, t.draining || t.shut))
  in
  if owned then begin
    complete tk outcome;
    if waited then Aeq_util.Waiter.wake t.quiet_waiter
  end

(* Run the ticket's query once, outside t.lock; the outcome of that
   single execution is its answer, and its deadline travels in
   [tk_cancel]. A domain crash stays lethal and escapes. *)
let execute tk mode =
  match Cancel.check tk.tk_cancel with
  | Some e -> Error e (* cancelled before it started *)
  | None -> (
    match tk.tk_exec ~mode ~cancel:tk.tk_cancel with
    | r -> Ok r
    | exception e when Aeq_util.Probe.is_crash e -> raise e
    | exception e -> Error (QE.of_exn e))

(* A pool worker serves a claimed ticket. The ticket is in [t.running]
   and in the worker's pool slot: if the worker crashes first, its
   crash handler calls [on_crash] below, which answers it with
   [Worker_crashed]. *)
let serve t tk eff_mode () =
  (* the ticket is already reclaimable: a crash from here on is the
     worker's crash handler's to answer. The dispatch site sits exactly
     in that window so the [Crash] action exercises the reclaim path. *)
  Aeq_util.Probe.hit "sched.dispatch";
  finish t tk (execute tk eff_mode)

(* A pool worker's [take], under the pool's lock (so it must not
   touch the pool): the next live ticket in priority order, claimed. *)
let take t () =
  with_lock t.lock (fun () ->
      Aeq_race.write ~site:"sched.pop" t.queues_loc;
      if t.shut || t.queued = 0 then None
      else begin
        expire_queued t;
        pop_live t [ 0; 1; 2 ]
        |> Option.map (fun tk ->
               let eff_mode = claim t tk in
               let on_crash ~domain exn =
                 finish ~crashed:true t tk
                   (Error (QE.Worker_crashed { domain; detail = Printexc.to_string exn }))
               in
               { Pool.run = serve t tk eff_mode; on_crash })
      end)

(* under t.lock: answer every still-queued client now, not a hang *)
let reject_queued t reason =
  Aeq_race.write ~site:"sched.reject_queued" t.queues_loc;
  Aeq_race.write ~site:"sched.reject_queued" t.counters_loc;
  Array.iter
    (fun q ->
      Queue.iter
        (fun tk ->
          if not (is_done tk) then begin
            t.n_rejected <- t.n_rejected + 1;
            obs_bump "rejected" ~help:"Queries refused at submission or shutdown.";
            complete tk (Error (QE.Rejected reason))
          end)
        q;
      Queue.clear q)
    t.queues;
  t.queued <- 0

(* ---- admission ------------------------------------------------------- *)

(* under t.lock: oldest live ticket of the lowest class strictly below
   [pri], popped out of its queue *)
let shed_victim t pri =
  pop_live t (match pri with High -> [ 2; 1 ] | Normal -> [ 2 ] | Low -> [])

let make_ticket t ~mode ~priority ~deadline ?cancel exec =
  let now = Clock.now () in
  let tk_cancel = match cancel with Some c -> c | None -> Cancel.create () in
  let tk_deadline =
    Option.map
      (fun allowance ->
        let at = now +. allowance in
        Cancel.set_deadline tk_cancel ~at ~allowance;
        at)
      deadline
  in
  {
    tk_sched = t;
    tk_exec = exec;
    tk_mode = mode;
    tk_priority = priority;
    tk_deadline;
    tk_submitted = now;
    tk_cancel;
    tk_lock = Aeq_race.Lock.create "sched.ticket.lock";
    tk_cond = Condition.create ();
    tk_loc = Aeq_race.locate "sched.ticket";
    tk_state = Queued;
    tk_started = -1.0;
    tk_degraded = false;
  }

(* under t.lock: drain closes admission first; in-flight queries run
   to completion *)
let reject_draining t tk =
  t.n_rejected <- t.n_rejected + 1;
  obs_bump "rejected" ~help:"Queries refused at submission or shutdown.";
  complete tk (Error (QE.Rejected "draining"))

let submit ?(mode = Driver.Adaptive) ?(priority = Normal) ?deadline_seconds ?cancel t
    exec =
  let tk = make_ticket t ~mode ~priority ~deadline:deadline_seconds ?cancel exec in
  let admitted =
    with_lock t.lock (fun () ->
      Aeq_race.write ~site:"sched.submit" t.queues_loc;
      Aeq_race.write ~site:"sched.submit" t.counters_loc;
      if t.shut then begin
        complete tk (Error (QE.Rejected "scheduler is shut down"));
        false
      end
      else if t.draining then begin
        reject_draining t tk;
        false
      end
      else begin
        (* overdue tickets leave first, so they never cost a newcomer
           its room *)
        expire_queued t;
        let admit () =
          Queue.push tk t.queues.(queue_index priority);
          t.queued <- t.queued + 1;
          t.n_admitted <- t.n_admitted + 1;
          obs_bump "admitted" ~help:"Queries admitted, queued or in-process.";
          if t.queued > t.max_depth then t.max_depth <- t.queued;
          true
        in
        if t.queued < t.cfg.queue_capacity then admit ()
        else
          match shed_victim t priority with
          | Some v ->
            t.n_shed <- t.n_shed + 1;
            obs_bump "shed" ~help:"Queued queries evicted to admit higher priority.";
            t.queued <- t.queued - 1;
            complete v
              (Error
                 (QE.Rejected
                    (Printf.sprintf "shed under overload (%s priority, queue full)"
                       (priority_name v.tk_priority))));
            admit ()
          | None ->
            (* full, nothing sheddable: fail fast *)
            t.n_rejected <- t.n_rejected + 1;
            obs_bump "rejected" ~help:"Queries refused at submission or shutdown.";
            complete tk
              (Error
                 (QE.Overloaded
                    { queue_depth = t.queued; capacity = t.cfg.queue_capacity }));
            false
      end)
  in
  (* outside t.lock: the pool's lock comes first in the lock order *)
  if admitted then Pool.wake t.pool;
  tk

(* The in-process admission class: the ticket is never queued, shed,
   degraded or expired, and no queue bound applies to it, so it needs
   no pool worker. Its caller runs it at once as tid 0 of its jobs. *)
let run_inline ?(mode = Driver.Adaptive) ?cancel t exec =
  let tk = make_ticket t ~mode ~priority:Normal ~deadline:None ?cancel exec in
  let tk = { tk with tk_state = Running; tk_started = tk.tk_submitted } in
  let admitted =
    with_lock t.lock (fun () ->
        Aeq_race.read ~site:"sched.run_inline" t.queues_loc;
        Aeq_race.write ~site:"sched.run_inline" t.counters_loc;
        Aeq_race.write ~site:"sched.run_inline" t.running_loc;
        if t.draining then begin
          reject_draining t tk;
          false
        end
        else if t.shut then invalid_arg "Scheduler.run_inline: scheduler is shut down"
        else begin
          t.n_admitted <- t.n_admitted + 1;
          obs_bump "admitted" ~help:"Queries admitted, queued or in-process.";
          t.running <- tk :: t.running;
          true
        end)
  in
  if admitted then begin
    match execute tk mode with
    | outcome -> finish t tk outcome
    | exception e ->
      (* a crash of the caller's own domain: answer the ticket so drain
         does not wait for it, then let the crash unwind the caller *)
      finish t tk (Error (QE.of_exn e));
      raise e
  end;
  await tk

(* ---- lifecycle ------------------------------------------------------- *)

let validate cfg =
  if cfg.queue_capacity < 1 then
    invalid_arg "Scheduler: queue_capacity must be >= 1"

let create ?(config = default_config) ~pool () =
  validate config;
  let t =
    {
      cfg = config;
      pool;
      lock = Aeq_race.Lock.create "sched.lock";
      queues_loc = Aeq_race.locate "sched.queues";
      counters_loc = Aeq_race.locate "sched.counters";
      running_loc = Aeq_race.locate "sched.running";
      queues = Array.init 3 (fun _ -> Queue.create ());
      queued = 0;
      shut = false;
      draining = false;
      running = [];
      n_admitted = 0;
      n_rejected = 0;
      n_shed = 0;
      n_expired = 0;
      n_completed = 0;
      n_failed = 0;
      n_degraded = 0;
      n_crashed_tickets = 0;
      max_depth = 0;
      total_wait = 0.0;
      n_waits = 0;
      max_wait = 0.0;
      quiet_waiter = Aeq_util.Waiter.create ();
    }
  in
  Pool.serve pool ~take:(take t);
  (* gauges registered unconditionally; rendering is what the
     observability switch gates *)
  Obs.Metrics.gauge_fn "aeq_scheduler_queue_depth"
    ~help:"Queries queued right now." (fun () ->
      with_lock t.lock (fun () ->
          Aeq_race.read ~site:"sched.gauge" t.queues_loc;
          t.queued));
  Obs.Metrics.gauge_fn "aeq_scheduler_in_flight"
    ~help:"Queries running right now, in-process or on pool workers." (fun () ->
      with_lock t.lock (fun () ->
          Aeq_race.read ~site:"sched.gauge" t.running_loc;
          List.length t.running));
  t

let draining t =
  with_lock t.lock (fun () ->
      Aeq_race.read ~site:"sched.draining" t.queues_loc;
      t.draining)

(* Sleep until [cond] holds under t.lock ([true]) or [deadline]
   passes ([false]). The caller sets [draining] or [shut] first, so
   [finish] pokes [quiet_waiter] as queries finish and this wakes on
   progress; the 10 ms re-poll bounds any missed wake. *)
let wait_until ?(deadline = infinity) t cond =
  let rec poll () =
    if with_lock t.lock cond then true
    else begin
      let remaining = deadline -. Clock.now () in
      if remaining <= 0.0 then false
      else begin
        ignore (Aeq_util.Waiter.wait t.quiet_waiter (Float.min 0.01 remaining));
        poll ()
      end
    end
  in
  poll ()

(* Graceful drain: close admission, then wait (bounded) for the queue
   and the in-flight set to empty. Past the deadline, still-queued
   clients are rejected and in-flight queries cancelled — every
   [await] resolves either way. *)
let drain ?(deadline_seconds = 30.0) t =
  with_lock t.lock (fun () ->
      Aeq_race.write ~site:"sched.drain" t.queues_loc;
      t.draining <- true);
  let clean =
    wait_until ~deadline:(Clock.now () +. deadline_seconds) t (fun () ->
        Aeq_race.read ~site:"sched.drain" t.queues_loc;
        Aeq_race.read ~site:"sched.drain" t.running_loc;
        t.queued = 0 && List.is_empty t.running)
  in
  if not clean then begin
    let running =
      with_lock t.lock (fun () ->
          Aeq_race.read ~site:"sched.drain" t.running_loc;
          reject_queued t "rejected at drain deadline";
          t.running)
    in
    List.iter (fun tk -> Cancel.cancel tk.tk_cancel) running
  end;
  clean

let stats t =
  let domain_crashes = Pool.crashes t.pool in
  with_lock t.lock (fun () ->
      Aeq_race.read ~site:"sched.stats" t.counters_loc;
      Aeq_race.read ~site:"sched.stats" t.queues_loc;
      Aeq_race.read ~site:"sched.stats" t.running_loc;
      {
      admitted = t.n_admitted;
      rejected = t.n_rejected;
      shed = t.n_shed;
      expired = t.n_expired;
      in_flight = List.length t.running;
      completed = t.n_completed;
      failed = t.n_failed;
      degraded = t.n_degraded;
      queue_depth = t.queued;
      max_queue_depth = t.max_depth;
      avg_wait_seconds = (if t.n_waits = 0 then 0.0 else t.total_wait /. float_of_int t.n_waits);
      max_wait_seconds = t.max_wait;
      crashed_tickets = t.n_crashed_tickets;
      domain_crashes;
      })

let reset_stats t =
  with_lock t.lock (fun () ->
      Aeq_race.write ~site:"sched.reset_stats" t.counters_loc;
      t.n_admitted <- 0;
      t.n_rejected <- 0;
      t.n_shed <- 0;
      t.n_expired <- 0;
      t.n_completed <- 0;
      t.n_failed <- 0;
      t.n_degraded <- 0;
      t.n_crashed_tickets <- 0;
      t.max_depth <- t.queued;
      t.total_wait <- 0.0;
      t.n_waits <- 0;
      t.max_wait <- 0.0)

(* Refuse new work and answer the queued, then wait for the in-flight
   queries: the pool's workers and in-process callers serve them, so
   the pool must outlive this call. Idempotent. *)
let shutdown t =
  with_lock t.lock (fun () ->
      Aeq_race.write ~site:"sched.shutdown" t.queues_loc;
      t.shut <- true;
      reject_queued t "scheduler is shut down");
  ignore
    (wait_until t (fun () ->
         Aeq_race.read ~site:"sched.shutdown" t.running_loc;
         List.is_empty t.running));
  Aeq_util.Waiter.dispose t.quiet_waiter
