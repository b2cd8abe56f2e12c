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
  shed_resident_bytes : int option;
  deadline_grace : float;
  watchdog_period : float;
  restart_policy : Supervisor.policy;
}

let default_config =
  {
    dispatchers = 1;
    queue_capacity = 64;
    shed_queue_depth = 48;
    shed_resident_bytes = None;
    deadline_grace = 0.25;
    watchdog_period = 0.005;
    restart_policy = Supervisor.default_policy;
  }

type outcome = (Driver.result, QE.t) result

type state = Queued | Running | Done of outcome

type ticket = {
  tk_id : int;
  tk_sql : string;
  tk_mode : Driver.mode;
  tk_priority : priority;
  tk_deadline_seconds : float option;
  tk_deadline : float option; (* absolute, against Clock.now *)
  tk_submitted : float;
  tk_cancel : Cancel.t;
  tk_lock : Aeq_race.Lock.t;
  tk_cond : Condition.t;
  tk_loc : Aeq_race.location;
  mutable tk_state : state;
  mutable tk_started : float; (* -1. until dispatched *)
  mutable tk_watchdog_fired : bool;
  mutable tk_degraded : bool;
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
  watchdog_cancels : int;
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
    watchdog_cancels = 0;
    queue_depth = 0;
    max_queue_depth = 0;
    avg_wait_seconds = 0.0;
    max_wait_seconds = 0.0;
    crashed_tickets = 0;
    domain_crashes = 0;
    domain_restarts = 0;
  }

(* Lock order, everywhere: [t.lock] before [tk_lock], never the
   reverse. [await] and the ticket accessors take only [tk_lock]. *)
type t = {
  cfg : config;
  exec : mode:Driver.mode -> cancel:Cancel.t -> string -> Driver.result;
  arena : Aeq_mem.Arena.t option;
  lock : Aeq_race.Lock.t;
  work : Condition.t; (* signalled on admit and on shutdown *)
  queues_loc : Aeq_race.location;
  counters_loc : Aeq_race.location;
  running_loc : Aeq_race.location;
  queues : ticket Queue.t array; (* [High; Normal; Low] *)
  ids : int Atomic.t;
  mutable queued : int; (* live (state Queued) tickets across queues *)
  mutable stopped : bool;
  mutable draining : bool; (* admission closed; in-flight may finish *)
  running_tks : (int, ticket) Hashtbl.t;
      (* in-flight tickets by id — what the watchdog supervises; with
         several dispatchers there are up to [cfg.dispatchers] at once *)
  current : ticket option array;
      (* per-dispatcher serving slot, written under [lock]: what the
         supervisor reclaims (completes as [Worker_crashed]) if that
         dispatcher's domain crashes mid-serve *)
  on_domain_crash : name:string -> exn -> unit;
  mutable failed_dispatchers : int; (* dispatchers whose supervisor gave up *)
  (* counters *)
  mutable n_admitted : int;
  mutable n_rejected : int;
  mutable n_shed : int;
  mutable n_expired : int;
  mutable n_completed : int;
  mutable n_failed : int;
  mutable n_degraded : int;
  mutable n_watchdog_cancels : int;
  mutable n_crashed_tickets : int;
  mutable max_depth : int;
  mutable total_wait : float;
  mutable n_waits : int;
  mutable max_wait : float;
  wd_waiter : Aeq_util.Waiter.t; (* watchdog inter-sweep sleep; woken on shutdown *)
  quiet_waiter : Aeq_util.Waiter.t;
      (* poked whenever in-flight work finishes; [drain] sleeps on it *)
  mutable supervisors : Supervisor.t list;
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

let await tk =
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
   outcome of this single execution as its answer. *)
let execute t tk eff_mode =
  match t.exec ~mode:eff_mode ~cancel:tk.tk_cancel tk.tk_sql with
  | r -> Ok r
  | exception e when Aeq_util.Probe.is_crash e ->
    (* an injected domain kill must stay lethal: let it unwind out of
       the dispatcher so the supervisor path (reclaim + restart) is
       what answers the client, not this conversion layer *)
    raise e
  | exception e -> (
    match QE.of_exn e with
    | QE.Cancelled
      when with_lock tk.tk_lock (fun () ->
               Aeq_race.read ~site:"sched.execute" tk.tk_loc;
               tk.tk_watchdog_fired) ->
      (* the watchdog killed it for blowing its deadline: surface the
         reason, not the mechanism *)
      Error (QE.Timeout (Option.value tk.tk_deadline_seconds ~default:0.0))
    | err -> Error err)

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

(* Serve one ticket on dispatcher [di]. Called and returns with t.lock
   NOT held; every critical section inside is [Fun.protect]ed
   ([with_lock]) so no exception — injected crash included — can
   abandon the scheduler mutex. While the query executes, the ticket
   sits in [t.current.(di)]: the dispatcher's supervisor completes it
   with [Worker_crashed] if this domain dies before [finish]. *)
let serve t di tk =
  let decision =
    with_lock t.lock (fun () ->
        Aeq_race.write ~site:"sched.serve" t.counters_loc;
        Aeq_race.write ~site:"sched.serve" t.running_loc;
        let now = Clock.now () in
        match tk.tk_deadline with
        | Some d when now > d ->
          (* expired while queued (between watchdog sweeps) *)
          t.n_expired <- t.n_expired + 1;
          obs_bump "expired" ~help:"Queries whose deadline passed while queued.";
          None
        | _ ->
          let wait = now -. tk.tk_submitted in
          t.total_wait <- t.total_wait +. wait;
          t.n_waits <- t.n_waits + 1;
          if wait > t.max_wait then t.max_wait <- wait;
          (* under overload, no compilation spend *)
          let overloaded =
            t.queued > t.cfg.shed_queue_depth
            || (match (t.cfg.shed_resident_bytes, t.arena) with
               | Some b, Some a -> Aeq_mem.Arena.resident_bytes a > b
               | _ -> false)
            (* near the scratch cap, compiling (and its scratch spike)
               is the wrong thing to spend memory on: degrade to
               bytecode until backpressure drains *)
            || (match t.arena with
               | Some a -> Aeq_mem.Arena.scratch_under_pressure a
               | None -> false)
          in
          let eff_mode = if overloaded then Driver.Bytecode else tk.tk_mode in
          if eff_mode <> tk.tk_mode then begin
            t.n_degraded <- t.n_degraded + 1;
            obs_bump "degraded" ~help:"Executions forced to bytecode-only."
          end;
          Hashtbl.replace t.running_tks tk.tk_id tk;
          t.current.(di) <- Some tk;
          Some eff_mode)
  in
  match decision with
  | None -> complete tk (Error (QE.Rejected "deadline expired in admission queue"))
  | Some eff_mode ->
    (* the ticket is now reclaimable: a crash from here on is the
       supervisor's to answer. The dispatch site sits exactly in that
       window so the [Crash] action exercises the reclaim path. *)
    Aeq_util.Probe.hit "sched.dispatch";
    with_lock tk.tk_lock (fun () ->
        Aeq_race.write ~site:"sched.dispatch" tk.tk_loc;
        tk.tk_state <- Running;
        tk.tk_started <- Clock.now ();
        tk.tk_degraded <- eff_mode <> tk.tk_mode);
    let outcome =
      if Cancel.cancelled tk.tk_cancel then Error QE.Cancelled
      else execute t tk eff_mode
    in
    with_lock t.lock (fun () ->
        Aeq_race.write ~site:"sched.finish" t.counters_loc;
        Aeq_race.write ~site:"sched.finish" t.running_loc;
        t.current.(di) <- None;
        Hashtbl.remove t.running_tks tk.tk_id;
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

(* Marks dispatcher domains so the engine's drain admission gate can
   tell a dispatcher-driven [exec] call (already-admitted work that
   must run to completion) from a fresh direct client. Sticky per
   domain — dispatchers are dedicated, and in-domain supervised
   restarts keep the identity. *)
let dispatcher_here : bool ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref false)

let executing_here () = !(Domain.DLS.get dispatcher_here)

let dispatcher_loop t di () =
  Domain.DLS.get dispatcher_here := true;
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
            else if t.queued > 0 then begin
              match pop_live t with
              | Some tk ->
                t.queued <- t.queued - 1;
                Some tk
              | None ->
                t.queued <- 0;
                (* counter drift guard; unreachable *)
                get ()
            end
            else begin
              Aeq_race.Lock.wait t.work t.lock;
              get ()
            end
          in
          get ())
    in
    match next with
    | Some tk -> serve t di tk
    | None -> running := false
  done

(* ---- watchdog -------------------------------------------------------- *)

let watchdog_loop t () =
  let running = ref true in
  while !running do
    (* interruptible inter-sweep sleep: shutdown wakes the waiter, so
       closing the scheduler never stalls a full watchdog period *)
    ignore (Aeq_util.Waiter.wait t.wd_waiter t.cfg.watchdog_period);
    Aeq_util.Probe.hit "sched.watchdog";
    with_lock t.lock (fun () ->
        Aeq_race.read ~site:"sched.watchdog" t.queues_loc;
        Aeq_race.read ~site:"sched.watchdog" t.running_loc;
        if t.stopped then running := false
        else begin
          let now = Clock.now () in
          (* in-flight queries: cancel past deadline + grace *)
          Hashtbl.iter
            (fun _ tk ->
              match tk.tk_deadline with
              | Some d when now > d +. t.cfg.deadline_grace ->
                let fresh =
                  with_lock tk.tk_lock (fun () ->
                      Aeq_race.write ~site:"sched.watchdog" tk.tk_loc;
                      let fresh = not tk.tk_watchdog_fired in
                      if fresh then tk.tk_watchdog_fired <- true;
                      fresh)
                in
                if fresh then begin
                  Cancel.cancel tk.tk_cancel;
                  Aeq_race.write ~site:"sched.watchdog" t.counters_loc;
                  t.n_watchdog_cancels <- t.n_watchdog_cancels + 1;
                  obs_bump "watchdog_cancels" ~help:"Running queries cancelled past deadline+grace."
                end
              | _ -> ())
            t.running_tks;
          (* queued queries whose deadline already passed: answer now
             instead of wasting a dispatch slot later *)
          Array.iter
            (fun q ->
              Queue.iter
                (fun tk ->
                  match tk.tk_deadline with
                  | Some d when now > d && not (is_done tk) ->
                    t.n_expired <- t.n_expired + 1;
                    obs_bump "expired" ~help:"Queries whose deadline passed while queued.";
                    t.queued <- t.queued - 1;
                    complete tk (Error (QE.Rejected "deadline expired in admission queue"))
                  | _ -> ())
                q)
            t.queues
        end)
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
  let tk =
    {
      tk_id = Atomic.fetch_and_add t.ids 1;
      tk_sql = sql;
      tk_mode = mode;
      tk_priority = priority;
      tk_deadline_seconds = deadline_seconds;
      tk_deadline = Option.map (fun s -> now +. s) deadline_seconds;
      tk_submitted = now;
      tk_cancel = (match cancel with Some c -> c | None -> Cancel.create ());
      tk_lock = Aeq_race.Lock.create "sched.ticket.lock";
      tk_cond = Condition.create ();
      tk_loc = Aeq_race.locate "sched.ticket";
      tk_state = Queued;
      tk_started = -1.0;
      tk_watchdog_fired = false;
      tk_degraded = false;
    }
  in
  let verdict =
    with_lock t.lock (fun () ->
        Aeq_race.write ~site:"sched.submit" t.queues_loc;
        Aeq_race.write ~site:"sched.submit" t.counters_loc;
        if t.stopped then `Rejected (QE.Rejected "scheduler is shut down")
        else if t.draining then begin
          (* drain closes admission first: new work is refused while
             in-flight queries run to completion *)
          t.n_rejected <- t.n_rejected + 1;
          obs_bump "rejected" ~help:"Queries refused at submission or shutdown.";
          `Rejected (QE.Rejected "draining")
        end
        else begin
          let room =
            if t.queued < t.cfg.queue_capacity then `Room None
            else
              match shed_victim t priority with
              | Some v ->
                t.n_shed <- t.n_shed + 1;
                obs_bump "shed" ~help:"Queued queries evicted to admit higher priority.";
                t.queued <- t.queued - 1;
                `Room (Some v)
              | None ->
                (* full, nothing sheddable: fail fast *)
                let depth = t.queued in
                t.n_rejected <- t.n_rejected + 1;
                obs_bump "rejected" ~help:"Queries refused at submission or shutdown.";
                `Rejected
                  (QE.Overloaded
                     { queue_depth = depth; capacity = t.cfg.queue_capacity })
          in
          match room with
          | `Rejected _ as r -> r
          | `Room victim ->
            Queue.push tk t.queues.(queue_index priority);
            t.queued <- t.queued + 1;
            t.n_admitted <- t.n_admitted + 1;
            obs_bump "admitted" ~help:"Queries accepted into the admission queue.";
            if t.queued > t.max_depth then t.max_depth <- t.queued;
            Condition.signal t.work;
            `Admitted victim
        end)
  in
  (match verdict with
  | `Rejected e -> complete tk (Error e)
  | `Admitted (Some v) ->
    complete v
      (Error
         (QE.Rejected
            (Printf.sprintf "shed under overload (%s priority, queue full)"
               (priority_name v.tk_priority))))
  | `Admitted None -> ());
  tk

(* ---- lifecycle ------------------------------------------------------- *)

let validate cfg =
  if cfg.dispatchers < 1 then
    invalid_arg "Scheduler: dispatchers must be >= 1";
  if cfg.queue_capacity < 1 then
    invalid_arg "Scheduler: queue_capacity must be >= 1";
  if cfg.watchdog_period <= 0.0 then
    invalid_arg "Scheduler: watchdog_period must be > 0"

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
          Hashtbl.remove t.running_tks tk.tk_id;
          t.n_crashed_tickets <- t.n_crashed_tickets + 1;
          t.n_failed <- t.n_failed + 1;
          obs_bump "crashed_tickets"
            ~help:"In-flight tickets completed as Worker_crashed by supervisor reclaim.";
          Some
            ( tk,
              QE.Worker_crashed { domain = sv_name; detail = Printexc.to_string exn } ))
  in
  (match victim with
  | Some (tk, err) ->
    complete tk (Error err);
    Aeq_util.Waiter.wake t.quiet_waiter
  | None -> ());
  t.on_domain_crash ~name:sv_name exn

(* A dispatcher whose restart budget is exhausted stops serving. When
   the LAST one gives up nothing will ever pop the queue again — fail
   its clients now and refuse new ones, instead of hanging them. *)
let dispatcher_gave_up t =
  with_lock t.lock (fun () ->
      Aeq_race.write ~site:"sched.gave_up" t.running_loc;
      t.failed_dispatchers <- t.failed_dispatchers + 1;
      if t.failed_dispatchers >= t.cfg.dispatchers then
        reject_queued t "no serving domains left (restart budget exhausted)")

let create ?(config = default_config) ?arena
    ?(on_domain_crash = fun ~name:_ _ -> ()) ~exec () =
  validate config;
  let t =
    {
      cfg = config;
      exec;
      arena;
      lock = Aeq_race.Lock.create "sched.lock";
      work = Condition.create ();
      queues_loc = Aeq_race.locate "sched.queues";
      counters_loc = Aeq_race.locate "sched.counters";
      running_loc = Aeq_race.locate "sched.running";
      queues = Array.init 3 (fun _ -> Queue.create ());
      ids = Atomic.make 0;
      queued = 0;
      stopped = false;
      draining = false;
      running_tks = Hashtbl.create 8;
      current = Array.make config.dispatchers None;
      on_domain_crash;
      failed_dispatchers = 0;
      n_admitted = 0;
      n_rejected = 0;
      n_shed = 0;
      n_expired = 0;
      n_completed = 0;
      n_failed = 0;
      n_degraded = 0;
      n_watchdog_cancels = 0;
      n_crashed_tickets = 0;
      max_depth = 0;
      total_wait = 0.0;
      n_waits = 0;
      max_wait = 0.0;
      wd_waiter = Aeq_util.Waiter.create ();
      quiet_waiter = Aeq_util.Waiter.create ();
      supervisors = [];
    }
  in
  t.supervisors <-
    Supervisor.spawn ~policy:config.restart_policy ~name:"scheduler.watchdog"
      ~on_crash:(fun exn -> t.on_domain_crash ~name:"scheduler.watchdog" exn)
      (watchdog_loop t)
    :: List.init config.dispatchers (fun i ->
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
          Hashtbl.length t.running_tks));
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
        t.queued = 0 && Hashtbl.length t.running_tks = 0)
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
    let in_flight =
      with_lock t.lock (fun () ->
          reject_queued t "rejected at drain deadline";
          Hashtbl.fold (fun _ tk acc -> tk :: acc) t.running_tks [])
    in
    List.iter (fun tk -> Cancel.cancel tk.tk_cancel) in_flight
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
      in_flight = Hashtbl.length t.running_tks;
      completed = t.n_completed;
      failed = t.n_failed;
      degraded = t.n_degraded;
      watchdog_cancels = t.n_watchdog_cancels;
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
  t.n_watchdog_cancels <- 0;
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
    (* wake the watchdog out of its inter-sweep sleep so close never
       stalls a full period, and cut any supervisor backoff short *)
    Aeq_util.Waiter.wake t.wd_waiter;
    List.iter Supervisor.stop svs;
    List.iter Supervisor.join svs;
    Aeq_util.Waiter.dispose t.wd_waiter;
    Aeq_util.Waiter.dispose t.quiet_waiter
