(* Multi-tenant worker pool over OCaml domains.

   The old pool was single-tenant: one job slot per worker and a
   done-count barrier meant a second query's pipeline had to wait for
   the first to finish entirely — the serialization the global exec
   lock then cemented. Here jobs from several in-flight queries
   coexist on one open-job list; each worker picks the job with the
   fewest participants (spreading domains across queries instead of
   ganging up on one), claims the next tid, and runs morsels until the
   job's morsel supply is exhausted.

   A job is a [fn : tid:int -> unit] that returns when it cannot get
   more morsels; tids are claimed 0..max_tids-1 and never reused
   within a job, so per-tid state (allocators, output buffers) stays
   single-writer. The submitting caller always participates as tid 0 —
   a query makes progress even when every worker domain is busy
   elsewhere.

   Workers run under supervision (see [Supervisor]): a crash —
   anything [fn] throws that is not part of the structured-error
   contract, i.e. an [Injected_crash] or a real bug — would otherwise
   leave the job's [active] count permanently high and hang the
   submitting caller in its drain barrier forever. The supervisor's
   reclaim fixes the accounting (decrement [active], record a
   [Worker_crashed] as the job error, wake the barrier) and restarts
   the worker domain. *)

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
  error : exn option Atomic.t;
  j_loc : Aeq_race.location;
}

type t = {
  n_threads : int;
  lock : Aeq_race.Lock.t;
  work : Condition.t; (* new job posted / job list changed *)
  quiet : Condition.t; (* a participant left some job *)
  mutable jobs : job list;
  mutable stop : bool;
  current : job option array;
      (* per-worker claimed-job slot, written under [lock] — what the
         supervisor's reclaim repairs when worker [w] crashes *)
  mutable supervisors : Supervisor.t array;
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
       it (worker: reclaim + restart; caller: its own supervisor) *)
    raise e
  | e -> ignore (Atomic.compare_and_set j.error None (Some e))

let worker_loop t w () =
  let running = ref true in
  while !running do
    Aeq_race.Lock.lock t.lock;
    let rec await () =
      Aeq_race.read ~site:"pool.await" t.jobs_loc;
      if t.stop then None
      else
        match pick_job t with
        | Some j -> Some j
        | None ->
          Aeq_race.Lock.wait t.work t.lock;
          await ()
    in
    match await () with
    | None ->
      Aeq_race.Lock.unlock t.lock;
      running := false
    | Some j ->
      Aeq_race.write ~site:"pool.claim" j.j_loc;
      Aeq_race.write ~site:"pool.claim" t.current_loc;
      let tid = j.next_tid in
      j.next_tid <- tid + 1;
      j.active <- j.active + 1;
      t.current.(w) <- Some j;
      Aeq_race.Lock.unlock t.lock;
      run_participant j ~tid;
      Aeq_race.Lock.lock t.lock;
      Aeq_race.write ~site:"pool.leave" j.j_loc;
      Aeq_race.write ~site:"pool.leave" t.current_loc;
      t.current.(w) <- None;
      j.active <- j.active - 1;
      Condition.broadcast t.quiet;
      Aeq_race.Lock.unlock t.lock
  done

(* Supervisor reclaim for worker [w], running in the crashed domain
   after the unwind: the participant never reached its leave-the-job
   accounting, so do it here — and surface the crash as the job's
   error so the submitting caller raises [Worker_crashed] instead of
   silently losing the crashed participant's claimed morsels. *)
let worker_reclaim t w sv_name exn =
  Aeq_race.Lock.with_ t.lock (fun () ->
      Aeq_race.write ~site:"pool.reclaim" t.current_loc;
      match t.current.(w) with
      | Some j ->
        Aeq_race.write ~site:"pool.reclaim" j.j_loc;
        t.current.(w) <- None;
        j.active <- j.active - 1;
        ignore
          (Atomic.compare_and_set j.error None
             (Some
                (QE.Error
                   (QE.Worker_crashed
                      { domain = sv_name; detail = Printexc.to_string exn }))));
        Condition.broadcast t.quiet
      | None -> ())

let create ?(restart_policy = Supervisor.default_policy) ~n_threads () =
  let n_threads = Stdlib.max 1 n_threads in
  let t =
    {
      n_threads;
      lock = Aeq_race.Lock.create "pool.lock";
      work = Condition.create ();
      quiet = Condition.create ();
      jobs = [];
      stop = false;
      current = Array.make (Stdlib.max 1 (n_threads - 1)) None;
      supervisors = [||];
      closed = Atomic.make false;
      active_jobs = Atomic.make 0;
      jobs_loc = Aeq_race.locate "pool.jobs";
      current_loc = Aeq_race.locate "pool.current";
    }
  in
  t.supervisors <-
    Array.init (n_threads - 1) (fun w ->
        let sv_name = Printf.sprintf "pool.worker-%d" w in
        Supervisor.spawn ~policy:restart_policy ~name:sv_name
          ~on_crash:(worker_reclaim t w sv_name)
          (worker_loop t w));
  t

let n_threads t = t.n_threads

let closed t = Atomic.get t.closed

let active_jobs t = Atomic.get t.active_jobs

let busy t = active_jobs t > 0

let health_reasons t =
  Array.to_list t.supervisors |> List.filter_map Supervisor.health_reason

let supervisors t = Array.to_list t.supervisors

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
      t.jobs <- j :: t.jobs;
      Condition.broadcast t.work);
  (* The close-out runs on every exit path — including the caller
     itself crashing as tid 0: the job must leave the open list and
     its barrier must drain, or the pool leaks the job and the
     in-flight gauge sticks. The crash then propagates to the caller's
     own supervisor (the dispatcher's, usually). *)
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
  match Atomic.get j.error with Some e -> raise e | None -> ()

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
    Aeq_race.Lock.with_ t.lock (fun () ->
        Aeq_race.write ~site:"pool.shutdown" t.jobs_loc;
        t.stop <- true;
        Condition.broadcast t.work);
    Array.iter Supervisor.stop t.supervisors;
    Array.iter Supervisor.join t.supervisors
  end
