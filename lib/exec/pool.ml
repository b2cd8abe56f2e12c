(* Multi-tenant worker pool over OCaml domains — the engine's only
   domains. Jobs from several in-flight queries coexist on one
   open-job list; each worker picks the job with the fewest
   participants, claims the next tid, and runs morsels until the
   job's morsel supply is exhausted. A worker with no job to join
   serves a queued ticket instead, as tid 0 of that query's jobs.

   A job is a [fn : tid:int -> unit] that returns when it cannot get
   more morsels; tids are claimed 0..max_tids-1 and never reused
   within a job, so per-tid state (allocators, output buffers) stays
   single-writer. The submitting caller always participates as tid 0.
   A serving worker waits only in its own query's barrier, and a
   helper's morsel loop waits in none, so no worker ever waits on
   another query's barrier.

   Workers run under supervision (see [Supervisor]): a crash — an
   [Injected_crash] or a real bug — would otherwise leave a job's
   [active] count high (hanging its caller's barrier) or an admitted
   query unanswered. The worker's one reclaim hook repairs whichever
   it held, and the supervisor restarts the worker. *)

module QE = Query_error

let () =
  Aeq_race.declare "pool.jobs" (Aeq_race.Lock "pool.lock");
  Aeq_race.declare "pool.current" (Aeq_race.Lock "pool.lock");
  Aeq_race.declare "pool.job.state" (Aeq_race.Lock "pool.lock")

type job = {
  fn : tid:int -> unit;
  max_tids : int;
  mutable next_tid : int;
  mutable active : int;
  mutable closed_job : bool; (* caller finished; no new joiners *)
  error : (exn * Printexc.raw_backtrace) option Atomic.t;
      (* the first participant's exception, with its backtrace *)
  j_loc : Aeq_race.location;
}

type task = { run : unit -> unit; on_crash : domain:string -> exn -> unit }

type server = { take : unit -> task option; on_stranded : unit -> unit }

(* what a worker holds, and its reclaim repairs: a job (with its tid)
   or a queued ticket *)
type slot = Idle | Helping of job * int | Serving of task

type t = {
  n_threads : int;
  lock : Aeq_race.Lock.t;
  work : Condition.t; (* job posted / ticket admitted / stop *)
  quiet : Condition.t; (* a participant left some job *)
  mutable jobs : job list;
  mutable server : server option; (* the attached scheduler *)
  mutable helpers : bool; (* the n-1 helpers started *)
  mutable serving : bool; (* the n-th worker started, for queued tickets *)
  mutable stop : bool;
  current : slot array; (* per-worker, written under [lock] *)
  supervisors : Supervisor.t array Atomic.t;
  policy : Supervisor.policy;
  closed : bool Atomic.t;
  active_jobs : int Atomic.t;
  jobs_loc : Aeq_race.location;
  current_loc : Aeq_race.location;
}

(* under t.lock: the open job with the fewest claimed tids *)
let pick_job t =
  let best = ref None in
  List.iter
    (fun j ->
      if (not j.closed_job) && j.next_tid < j.max_tids then
        match !best with
        | Some b when b.next_tid <= j.next_tid -> ()
        | _ -> best := Some j)
    t.jobs;
  !best

let run_participant j ~tid =
  try
    (* the pick is where a worker commits to a job — faults and
       interleavings here exercise the claimed-but-not-started window *)
    Aeq_util.Probe.hit "pool.pick";
    j.fn ~tid
  with
  | e when Aeq_util.Probe.is_crash e ->
    (* not folded into the job error: a crash must stay lethal to the
       participant's domain so the supervision layer is what handles
       it (helper: reclaim + restart; tid 0: the caller's own) *)
    raise e
  | e ->
    (* kept with the participant's own backtrace, which the caller
       re-raises with: a trap in a helper names the helper's frames,
       not the caller's re-raise *)
    let bt = Printexc.get_raw_backtrace () in
    ignore (Atomic.compare_and_set j.error None (Some (e, bt)))

(* Under t.lock: put the next thing to hold in worker [w]'s slot — a
   job to help, else a queued ticket; [Idle] once the pool stops.
   [take] locks the scheduler: the lock order is [pool.lock] before
   [sched.lock]. The lock is held from the check to the [wait], and
   [wake] takes it, so a ticket admitted in between still wakes us. *)
let rec claim t w =
  Aeq_race.read ~site:"pool.claim" t.jobs_loc;
  Aeq_race.write ~site:"pool.claim" t.current_loc;
  let held =
    if t.stop then Idle
    else
      match pick_job t with
      | Some j ->
        Aeq_race.write ~site:"pool.claim" j.j_loc;
        j.next_tid <- j.next_tid + 1;
        j.active <- j.active + 1;
        Helping (j, j.next_tid - 1)
      | None -> (
        match Option.bind t.server (fun s -> s.take ()) with
        | Some task -> Serving task
        | None -> Idle)
  in
  match held with
  | Idle when not t.stop ->
    Aeq_race.Lock.wait t.work t.lock;
    claim t w
  | _ ->
    t.current.(w) <- held;
    held

(* under t.lock: worker [w] lets go of [held] *)
let leave t w held =
  Aeq_race.write ~site:"pool.leave" t.current_loc;
  t.current.(w) <- Idle;
  match held with
  | Helping (j, _) ->
    Aeq_race.write ~site:"pool.leave" j.j_loc;
    j.active <- j.active - 1;
    Condition.broadcast t.quiet
  | Serving _ | Idle -> ()

let worker_loop t w () =
  let running = ref true in
  while !running do
    let held = Aeq_race.Lock.with_ t.lock (fun () -> claim t w) in
    (match held with
    | Idle -> running := false
    | Helping (j, tid) -> run_participant j ~tid
    | Serving task -> task.run ());
    Aeq_race.Lock.with_ t.lock (fun () -> leave t w held)
  done

(* Supervisor reclaim for worker [w], in the crashed domain after the
   unwind: leave what the worker held. A helper's crash becomes its
   job's error, so the caller raises [Worker_crashed] instead of
   silently losing the claimed morsels; a served query is answered by
   the scheduler, outside [pool.lock]. *)
let worker_reclaim t w domain exn =
  let crash = QE.Error (QE.Worker_crashed { domain; detail = Printexc.to_string exn }) in
  let held =
    Aeq_race.Lock.with_ t.lock (fun () ->
        Aeq_race.read ~site:"pool.reclaim" t.current_loc;
        let held = t.current.(w) in
        (match held with
        | Helping (j, _) ->
          (* the crash unwound the helper's stack already: no frames
             to keep *)
          ignore (Atomic.compare_and_set j.error None (Some (crash, Printexc.get_callstack 0)))
        | Serving _ | Idle -> ());
        leave t w held;
        held)
  in
  match held with Serving task -> task.on_crash ~domain exn | Helping _ | Idle -> ()

let supervisors t = Array.to_list (Atomic.get t.supervisors)

(* When the last worker's restart budget is spent, nothing will take
   a ticket again. Until the n-th worker has started, the next queued
   ticket still starts it. *)
let worker_gave_up t =
  let server =
    Aeq_race.Lock.with_ t.lock (fun () ->
        Aeq_race.read ~site:"pool.gave_up" t.jobs_loc;
        if t.serving then t.server else None)
  in
  if List.for_all (fun sv -> Supervisor.state sv = Supervisor.Failed) (supervisors t)
  then Option.iter (fun s -> s.on_stranded ()) server

let spawn_worker t w =
  let domain = Printf.sprintf "pool.worker-%d" w in
  Supervisor.spawn ~policy:t.policy ~name:domain
    ~on_crash:(worker_reclaim t w domain)
    ~on_give_up:(fun _ -> worker_gave_up t)
    (worker_loop t w)

let create ?(restart_policy = Supervisor.default_policy) ~n_threads () =
  let n_threads = Stdlib.max 1 n_threads in
  let t =
    {
      n_threads;
      lock = Aeq_race.Lock.create "pool.lock";
      work = Condition.create ();
      quiet = Condition.create ();
      jobs = [];
      server = None;
      helpers = false;
      serving = false;
      stop = false;
      current = Array.make n_threads Idle;
      supervisors = Atomic.make [||];
      policy = restart_policy;
      closed = Atomic.make false;
      active_jobs = Atomic.make 0;
      jobs_loc = Aeq_race.locate "pool.jobs";
      current_loc = Aeq_race.locate "pool.current";
    }
  in
  t

let n_threads t = t.n_threads

let closed t = Atomic.get t.closed

let active_jobs t = Atomic.get t.active_jobs

let busy t = active_jobs t > 0

let health_reasons t = List.filter_map Supervisor.health_reason (supervisors t)

(* Under t.lock, so [shutdown] joins every worker started: [k] more
   workers, numbered after those already running. *)
let start_workers t k =
  if not t.stop then begin
    let svs = Atomic.get t.supervisors in
    let n = Array.length svs in
    Atomic.set t.supervisors (Array.append svs (Array.init k (fun i -> spawn_worker t (n + i))))
  end

let wake t =
  Aeq_race.Lock.with_ t.lock (fun () ->
      Aeq_race.write ~site:"pool.wake" t.jobs_loc;
      (* a queued ticket has no caller domain: the first one starts
         the n-th worker *)
      if not t.serving then begin
        t.serving <- true;
        start_workers t 1
      end;
      Condition.broadcast t.work)

let serve t ~take ~on_stranded =
  let stranded =
    Aeq_race.Lock.with_ t.lock (fun () ->
        Aeq_race.write ~site:"pool.serve" t.jobs_loc;
        if Option.is_some t.server then
          invalid_arg "Pool.serve: a scheduler is already attached";
        t.server <- Some { take; on_stranded };
        t.stop)
  in
  if stranded then on_stranded ()

let run ?max_tids t fn =
  (* a submission to dead workers would never gain helpers *)
  if closed t then invalid_arg "Pool.run: pool has been shut down";
  let max_tids =
    match max_tids with
    | Some m -> Stdlib.max 1 (Stdlib.min m t.n_threads)
    | None -> t.n_threads
  in
  let j =
    {
      fn;
      max_tids;
      next_tid = 1; (* tid 0 is the caller's *)
      active = 1;
      closed_job = false;
      error = Atomic.make None;
      j_loc = Aeq_race.locate "pool.job.state";
    }
  in
  ignore (Atomic.fetch_and_add t.active_jobs 1);
  Aeq_race.Lock.with_ t.lock (fun () ->
      Aeq_race.write ~site:"pool.post" t.jobs_loc;
      (* An idle domain makes every stop-the-world collection wait
         for it, table loading's included: the helpers start with the
         first job that can use them. *)
      if max_tids > 1 && not t.helpers then begin
        t.helpers <- true;
        start_workers t (t.n_threads - 1)
      end;
      t.jobs <- j :: t.jobs;
      Condition.broadcast t.work);
  (* The close-out runs on every exit path — including the caller
     itself crashing as tid 0: the job must leave the open list and
     its barrier must drain, or the pool leaks the job and the
     in-flight gauge sticks. The crash then propagates to the caller —
     usually a worker serving an admitted query, whose reclaim answers
     it. *)
  let close_out () =
    Aeq_race.Lock.lock t.lock;
    Aeq_race.write ~site:"pool.close_out" t.jobs_loc;
    Aeq_race.write ~site:"pool.close_out" j.j_loc;
    j.closed_job <- true;
    t.jobs <- List.filter (fun j' -> j' != j) t.jobs;
    j.active <- j.active - 1;
    while j.active > 0 do
      Aeq_race.Lock.wait t.quiet t.lock
    done;
    Aeq_race.Lock.unlock t.lock;
    ignore (Atomic.fetch_and_add t.active_jobs (-1))
  in
  Fun.protect ~finally:close_out (fun () -> run_participant j ~tid:0);
  match Atomic.get j.error with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* Accounting coherence probe for the simulator's invariant checker:
   every open job's tid/participant counters must stay inside their
   envelopes whatever interleaving the scheduler forced. *)
let check t =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  if Atomic.get t.active_jobs < 0 then
    err "active_jobs negative: %d" (Atomic.get t.active_jobs);
  Aeq_race.Lock.with_ t.lock (fun () ->
      Aeq_race.read ~site:"pool.check" t.jobs_loc;
      List.iter
        (fun j ->
          Aeq_race.read ~site:"pool.check" j.j_loc;
          if j.active < 0 then
            err "job has negative participant count %d" j.active;
          if j.next_tid < 1 || j.next_tid > j.max_tids then
            err "job next_tid=%d outside [1,%d]" j.next_tid j.max_tids;
          if j.active > j.next_tid then
            err "job active=%d exceeds claimed tids=%d" j.active j.next_tid)
        t.jobs;
      if List.length t.jobs > Atomic.get t.active_jobs then
        err "%d open jobs but active_jobs=%d" (List.length t.jobs)
          (Atomic.get t.active_jobs));
  List.rev !errs

let shutdown t =
  if Atomic.compare_and_set t.closed false true then begin
    let server =
      Aeq_race.Lock.with_ t.lock (fun () ->
          Aeq_race.write ~site:"pool.shutdown" t.jobs_loc;
          t.stop <- true;
          Condition.broadcast t.work;
          t.server)
    in
    List.iter Supervisor.stop (supervisors t);
    List.iter Supervisor.join (supervisors t);
    (* no worker will take a ticket again *)
    Option.iter (fun s -> s.on_stranded ()) server
  end
