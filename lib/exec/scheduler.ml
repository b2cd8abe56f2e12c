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

type config = {
  dispatchers : int; (* dispatcher domains = queries concurrently in flight *)
  queue_capacity : int;
  shed_queue_depth : int;
  restart_policy : Supervisor.policy;
}

let default_config =
  {
    dispatchers = 1;
    queue_capacity = 64;
    shed_queue_depth = 48;
    restart_policy = Supervisor.default_policy;
  }

type outcome = (Driver.result, QE.t) result

type state = Queued | Running | Done of outcome

(* Lock order, everywhere: [t.lock] before [tk_lock], never the
   reverse. *)
type ticket = {
  tk_sched : t; (* queued expiry at [poll]/[await] takes its lock *)
  tk_sql : string;
  tk_mode : Driver.mode;
  tk_priority : priority;
  tk_deadline : float option; (* absolute, against Clock.now *)
  tk_submitted : float;
  tk_cancel : Cancel.t;
  tk_lock : Aeq_race.Lock.t;
  tk_cond : Condition.t;
  tk_loc : Aeq_race.location;
  mutable tk_state : state;
      (* [Queued] exactly while the ticket is live in a queue:
         a dispatcher marks it [Running] when it claims it *)
  mutable tk_started : float; (* -1. until dispatched *)
  mutable tk_degraded : bool;
}

and t = {
  cfg : config;
  exec : mode:Driver.mode -> cancel:Cancel.t -> string -> Driver.result;
  lock : Aeq_race.Lock.t;
  work : Condition.t; (* signalled on admit and on shutdown *)
  queues_loc : Aeq_race.location;
  counters_loc : Aeq_race.location;
  running_loc : Aeq_race.location;
  queues : ticket Queue.t array; (* [High; Normal; Low] *)
  mutable queued : int; (* live (state Queued) tickets across queues *)
  mutable stopped : bool;
  mutable draining : bool; (* admission closed; in-flight may finish *)
  current : ticket option array;
      (* per-dispatcher serving slot, written under [lock]: the
         in-flight set, and what the supervisor reclaims (completes as
         [Worker_crashed]) if that dispatcher's domain crashes
         mid-serve *)
  mutable failed_dispatchers : int; (* dispatchers whose supervisor gave up *)
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
      (* poked whenever in-flight work finishes; [drain] sleeps on it *)
  mutable supervisors : Supervisor.t list;
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
  domain_restarts : int;
}

let zero_stats =
  {
    admitted = 0;
    rejected = 0;
    shed = 0;
    expired = 0;
    in_flight = 0;
    completed = 0;
    failed = 0;
    degraded = 0;
    queue_depth = 0;
    max_queue_depth = 0;
    avg_wait_seconds = 0.0;
    max_wait_seconds = 0.0;
    crashed_tickets = 0;
    domain_crashes = 0;
    domain_restarts = 0;
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

(* ---- execution ------------------------------------------------------ *)

(* Runs the query once, outside t.lock. Every admitted query gets the
   outcome of this single execution as its answer; its deadline, if
   any, travels in [tk_cancel] and the driver enforces it. *)
let execute t tk eff_mode =
  match t.exec ~mode:eff_mode ~cancel:tk.tk_cancel tk.tk_sql with
  | r -> Ok r
  | exception e when Aeq_util.Probe.is_crash e ->
    (* an injected domain kill must stay lethal: let it unwind out of
       the dispatcher so the supervisor path (reclaim + restart) is
       what answers the client, not this conversion layer *)
    raise e
  | exception e -> Error (QE.of_exn e)

(* ---- dispatcher ------------------------------------------------------ *)

(* under t.lock: oldest live ticket of the highest non-empty class *)
let pop_live t =
  let rec from_queue q =
    match Queue.take_opt q with
    | None -> None
    | Some tk -> if is_done tk then from_queue q else Some tk
  in
  let rec scan i = if i >= 3 then None else
      match from_queue t.queues.(i) with Some tk -> Some tk | None -> scan (i + 1)
  in
  scan 0

(* Under t.lock: dispatcher [di] takes [tk] (already popped). Marks it
   running, records its queue wait, puts it in the in-flight set and
   picks its effective mode: under overload, no compilation spend. *)
let claim t di tk =
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
  t.current.(di) <- Some tk;
  eff_mode

(* Serve one claimed ticket on dispatcher [di]. Called and returns with
   t.lock NOT held; every critical section inside is [Fun.protect]ed
   ([with_lock]) so no exception — injected crash included — can
   abandon the scheduler mutex. While the query executes, the ticket
   sits in [t.current.(di)]: the dispatcher's supervisor completes it
   with [Worker_crashed] if this domain dies before [finish]. *)
let serve t di tk eff_mode =
  (* the ticket is already reclaimable: a crash from here on is the
     supervisor's to answer. The dispatch site sits exactly in that
     window so the [Crash] action exercises the reclaim path. *)
  Aeq_util.Probe.hit "sched.dispatch";
  let outcome =
    match Cancel.check tk.tk_cancel with
    | Some e -> Error e (* cancelled while queued *)
    | None -> execute t tk eff_mode
  in
  with_lock t.lock (fun () ->
      Aeq_race.write ~site:"sched.finish" t.counters_loc;
      Aeq_race.write ~site:"sched.finish" t.running_loc;
      t.current.(di) <- None;
      match outcome with
      | Ok _ ->
        t.n_completed <- t.n_completed + 1;
        obs_bump "completed" ~help:"Queries finished with rows."
      | Error _ ->
        t.n_failed <- t.n_failed + 1;
        obs_bump "failed" ~help:"Queries finished with a structured error.");
  complete tk outcome;
  Aeq_util.Waiter.wake t.quiet_waiter

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

let dispatcher_loop t di () =
  let running = ref true in
  while !running do
    let next =
      with_lock t.lock (fun () ->
          let rec get () =
            Aeq_race.write ~site:"sched.pop" t.queues_loc;
            if t.stopped then begin
              (* fail-fast drain: pending clients get a structured
                 answer now *)
              reject_queued t "scheduler is shut down";
              None
            end
            else begin
              expire_queued t;
              if t.queued > 0 then begin
                match pop_live t with
                | Some tk ->
                  t.queued <- t.queued - 1;
                  Some (tk, claim t di tk)
                | None ->
                  t.queued <- 0;
                  (* counter drift guard; unreachable *)
                  get ()
              end
              else begin
                Aeq_race.Lock.wait t.work t.lock;
                get ()
              end
            end
          in
          get ())
    in
    match next with
    | Some (tk, eff_mode) -> serve t di tk eff_mode
    | None -> running := false
  done

(* ---- admission ------------------------------------------------------- *)

(* under t.lock: oldest live ticket of the lowest class strictly below
   [pri], popped out of its queue *)
let shed_victim t pri =
  let candidate_queues =
    match pri with High -> [ 2; 1 ] | Normal -> [ 2 ] | Low -> []
  in
  let rec from_queue q =
    match Queue.take_opt q with
    | None -> None
    | Some tk -> if is_done tk then from_queue q else Some tk
  in
  let rec scan = function
    | [] -> None
    | qi :: rest -> (
      match from_queue t.queues.(qi) with Some tk -> Some tk | None -> scan rest)
  in
  scan candidate_queues

let submit ?(mode = Driver.Adaptive) ?(priority = Normal) ?deadline_seconds ?cancel t
    sql =
  let now = Clock.now () in
  let tk_deadline = Option.map (fun s -> now +. s) deadline_seconds in
  let tk_cancel = match cancel with Some c -> c | None -> Cancel.create () in
  (match (tk_deadline, deadline_seconds) with
  | Some at, Some allowance -> Cancel.set_deadline tk_cancel ~at ~allowance
  | _ -> ());
  let tk =
    {
      tk_sched = t;
      tk_sql = sql;
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
  in
  with_lock t.lock (fun () ->
      Aeq_race.write ~site:"sched.submit" t.queues_loc;
      Aeq_race.write ~site:"sched.submit" t.counters_loc;
      if t.stopped then complete tk (Error (QE.Rejected "scheduler is shut down"))
      else if t.draining then begin
        (* drain closes admission first: new work is refused while
           in-flight queries run to completion *)
        t.n_rejected <- t.n_rejected + 1;
        obs_bump "rejected" ~help:"Queries refused at submission or shutdown.";
        complete tk (Error (QE.Rejected "draining"))
      end
      else begin
        (* overdue tickets leave first, so they never cost a newcomer
           its room *)
        expire_queued t;
        let admit () =
          Queue.push tk t.queues.(queue_index priority);
          t.queued <- t.queued + 1;
          t.n_admitted <- t.n_admitted + 1;
          obs_bump "admitted" ~help:"Queries accepted into the admission queue.";
          if t.queued > t.max_depth then t.max_depth <- t.queued;
          Condition.signal t.work
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
                    { queue_depth = t.queued; capacity = t.cfg.queue_capacity }))
      end);
  tk

(* ---- lifecycle ------------------------------------------------------- *)

let validate cfg =
  if cfg.dispatchers < 1 then
    invalid_arg "Scheduler: dispatchers must be >= 1";
  if cfg.queue_capacity < 1 then
    invalid_arg "Scheduler: queue_capacity must be >= 1"

(* Supervisor reclaim for dispatcher [di]: runs in the crashed domain
   after its stack unwound (arena leases and mutexes already released
   by the [Fun.protect]s along the way). What the unwind cannot do is
   answer the client — the ticket this dispatcher was serving would
   otherwise hang its [await] forever. It lives in scheduler state, so
   it is reclaimed here, under [t.lock]. *)
let dispatcher_reclaim t di sv_name exn =
  let victim =
    with_lock t.lock (fun () ->
        Aeq_race.write ~site:"sched.reclaim" t.running_loc;
        Aeq_race.write ~site:"sched.reclaim" t.counters_loc;
        match t.current.(di) with
        | None -> None
        | Some tk ->
          t.current.(di) <- None;
          t.n_crashed_tickets <- t.n_crashed_tickets + 1;
          t.n_failed <- t.n_failed + 1;
          obs_bump "crashed_tickets"
            ~help:"In-flight tickets completed as Worker_crashed by supervisor reclaim.";
          Some
            ( tk,
              QE.Worker_crashed { domain = sv_name; detail = Printexc.to_string exn } ))
  in
  match victim with
  | Some (tk, err) ->
    complete tk (Error err);
    Aeq_util.Waiter.wake t.quiet_waiter
  | None -> ()

(* A dispatcher whose restart budget is exhausted stops serving. When
   the LAST one gives up nothing will ever pop the queue again — fail
   its clients now and refuse new ones, instead of hanging them. *)
let dispatcher_gave_up t =
  with_lock t.lock (fun () ->
      Aeq_race.write ~site:"sched.gave_up" t.running_loc;
      t.failed_dispatchers <- t.failed_dispatchers + 1;
      if t.failed_dispatchers >= t.cfg.dispatchers then
        reject_queued t "no serving domains left (restart budget exhausted)")

(* under t.lock *)
let in_flight t =
  Array.fold_left (fun acc slot -> match slot with Some tk -> tk :: acc | None -> acc) []
    t.current

let create ?(config = default_config) ~exec () =
  validate config;
  let t =
    {
      cfg = config;
      exec;
      lock = Aeq_race.Lock.create "sched.lock";
      work = Condition.create ();
      queues_loc = Aeq_race.locate "sched.queues";
      counters_loc = Aeq_race.locate "sched.counters";
      running_loc = Aeq_race.locate "sched.running";
      queues = Array.init 3 (fun _ -> Queue.create ());
      queued = 0;
      stopped = false;
      draining = false;
      current = Array.make config.dispatchers None;
      failed_dispatchers = 0;
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
      supervisors = [];
    }
  in
  t.supervisors <-
    List.init config.dispatchers (fun i ->
        let sv_name = Printf.sprintf "scheduler.dispatcher-%d" i in
        Supervisor.spawn ~policy:config.restart_policy ~name:sv_name
          ~on_crash:(dispatcher_reclaim t i sv_name)
          ~on_give_up:(fun _ -> dispatcher_gave_up t)
          (dispatcher_loop t i));
  (* gauges registered unconditionally; rendering is what the
     observability switch gates *)
  Obs.Metrics.gauge_fn "aeq_scheduler_queue_depth"
    ~help:"Queries queued right now." (fun () ->
      with_lock t.lock (fun () ->
          Aeq_race.read ~site:"sched.gauge" t.queues_loc;
          t.queued));
  Obs.Metrics.gauge_fn "aeq_scheduler_in_flight"
    ~help:"Queries currently being served by dispatcher domains." (fun () ->
      with_lock t.lock (fun () ->
          Aeq_race.read ~site:"sched.gauge" t.running_loc;
          List.length (in_flight t)));
  Obs.Metrics.gauge_fn "aeq_scheduler_unhealthy_domains"
    ~help:"Supervised scheduler domains currently backing off or failed."
    (fun () ->
      List.length (List.filter_map Supervisor.health_reason t.supervisors));
  t

let supervisors t = t.supervisors

let health_reasons t = List.filter_map Supervisor.health_reason t.supervisors

let draining t =
  with_lock t.lock (fun () ->
      Aeq_race.read ~site:"sched.draining" t.queues_loc;
      t.draining)

(* Graceful drain: close admission, then wait (bounded) for the queue
   and the in-flight set to empty. Past the deadline, still-queued
   clients are rejected and in-flight queries cancelled — every
   [await] resolves either way. *)
let drain ?(deadline_seconds = 30.0) t =
  with_lock t.lock (fun () ->
      Aeq_race.write ~site:"sched.drain" t.queues_loc;
      t.draining <- true);
  let deadline = Clock.now () +. deadline_seconds in
  let quiesced () =
    with_lock t.lock (fun () ->
        Aeq_race.read ~site:"sched.drain" t.queues_loc;
        Aeq_race.read ~site:"sched.drain" t.running_loc;
        t.queued = 0 && in_flight t = [])
  in
  let rec poll () =
    if quiesced () then true
    else begin
      let remaining = deadline -. Clock.now () in
      if remaining <= 0.0 then false
      else begin
        (* dispatchers poke [quiet_waiter] as queries finish, so this
           wakes on progress instead of burning a fixed-period poll *)
        ignore
          (Aeq_util.Waiter.wait t.quiet_waiter (Float.min 0.01 remaining));
        poll ()
      end
    end
  in
  let clean = poll () in
  if not clean then begin
    let running =
      with_lock t.lock (fun () ->
          Aeq_race.read ~site:"sched.drain" t.running_loc;
          reject_queued t "rejected at drain deadline";
          in_flight t)
    in
    List.iter (fun tk -> Cancel.cancel tk.tk_cancel) running
  end;
  clean

let stats t =
  with_lock t.lock (fun () ->
      Aeq_race.read ~site:"sched.stats" t.counters_loc;
      Aeq_race.read ~site:"sched.stats" t.queues_loc;
      Aeq_race.read ~site:"sched.stats" t.running_loc;
      {
      admitted = t.n_admitted;
      rejected = t.n_rejected;
      shed = t.n_shed;
      expired = t.n_expired;
      in_flight = List.length (in_flight t);
      completed = t.n_completed;
      failed = t.n_failed;
      degraded = t.n_degraded;
      queue_depth = t.queued;
      max_queue_depth = t.max_depth;
      avg_wait_seconds = (if t.n_waits = 0 then 0.0 else t.total_wait /. float_of_int t.n_waits);
      max_wait_seconds = t.max_wait;
      crashed_tickets = t.n_crashed_tickets;
      (* supervisor counters are monotone over the scheduler's
         lifetime — the restart budget made observable *)
      domain_crashes =
        List.fold_left (fun acc sv -> acc + Supervisor.crashes sv) 0 t.supervisors;
      domain_restarts =
        List.fold_left (fun acc sv -> acc + Supervisor.restarts sv) 0 t.supervisors;
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

let shutdown t =
  let to_join =
    with_lock t.lock (fun () ->
        if t.stopped then None
        else begin
          Aeq_race.write ~site:"sched.shutdown" t.queues_loc;
          t.stopped <- true;
          Condition.broadcast t.work;
          Some t.supervisors
        end)
  in
  match to_join with
  | None -> ()
  | Some svs ->
    (* cut any supervisor backoff short, then join *)
    List.iter Supervisor.stop svs;
    List.iter Supervisor.join svs;
    Aeq_util.Waiter.dispose t.quiet_waiter
