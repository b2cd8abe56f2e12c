(* Deterministic concurrency simulator (loom/shuttle-style, scaled to
   this engine).

   The real engine code runs unmodified on real domains; determinism
   comes from token passing. Exactly one task holds the token at any
   instant. At every probe site (Aeq_util.Probe [hit] and [yield]
   calls on the lock-free hot path: lease acquire/release, morsel
   boundaries, context install, job pick, plan-cache lookup,
   single-flight compile) the running task hands the token back to the
   scheduler, which picks the next task — by seeded PRNG, or by a
   forced decision list when replaying. The interleaving is therefore
   a pure function of (seed | schedule), and a failing run is
   replayable bit for bit from two integers and a list.

   Three rules keep this sound:
   - probes sit OUTSIDE critical sections (suspending a
     lock-holder would deadlock the other tasks behind the lock);
   - code that would block on a condition variable spins through a
     yield instead when the simulator is on (the scheduler cannot see
     real blocking — a blocked token-holder is a hung simulation);
   - tasks must not spawn untracked domains (simulated engines run
     with n_threads = 1 so the pool has no workers; the submitting
     caller executes jobs inline, inside the task).

   Time is virtual: [run] installs a clock source that only the
   scheduler advances (a fixed tick per decision), so timeouts and
   deadlines are part of the schedule, not of wall time. *)

type state = Fresh | Waiting | Granted | Done

type task = {
  tk_id : int;
  tk_name : string;
  tk_fn : unit -> unit;
  mutable tk_state : state;
  tk_cond : Condition.t; (* signalled when the scheduler grants the token *)
  mutable tk_site : string; (* yield site the task is parked at *)
  mutable tk_exn : exn option;
}

type sched = {
  lock : Mutex.t;
  wake : Condition.t; (* signalled by a task yielding or finishing *)
  tasks : task array;
  free_run : bool Atomic.t;
      (* set when determinism is abandoned (abort / livelock): every
         task is released, yields become no-ops, we just join *)
}

type outcome = {
  seed : int64;
  schedule : int list; (* decisions actually taken, one per step *)
  trace : (string * string) list;
      (* (task name, site) per step, scheduling order — the schedule
         made readable *)
  steps : int;
  invariant_failures : (int * string) list; (* (step, message) *)
  task_exceptions : (string * string) list; (* (task name, exn) *)
  deadlocked : bool; (* hit max_steps without every task finishing *)
}

let failed o =
  o.invariant_failures <> [] || o.task_exceptions <> [] || o.deadlocked

let repro_string o =
  Printf.sprintf "seed=0x%Lx steps=%d schedule=[%s]%s" o.seed o.steps
    (String.concat ";" (List.map string_of_int o.schedule))
    (if o.deadlocked then " DEADLOCKED" else "")

(* which task (if any) the calling domain is simulating *)
let task_key : task option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current_sched : sched option Atomic.t = Atomic.make None

let yield_handler site =
  match Atomic.get current_sched with
  | None -> ()
  | Some s ->
    if not (Atomic.get s.free_run) then (
      match Domain.DLS.get task_key with
      | None -> () (* not a simulated task (e.g. the scheduler thread) *)
      | Some tk ->
        Mutex.lock s.lock;
        tk.tk_state <- Waiting;
        tk.tk_site <- site;
        Condition.signal s.wake;
        while tk.tk_state <> Granted && not (Atomic.get s.free_run) do
          Condition.wait tk.tk_cond s.lock
        done;
        Mutex.unlock s.lock)

let task_body s tk () =
  Domain.DLS.set task_key (Some tk);
  (* wait for the first grant *)
  Mutex.lock s.lock;
  while tk.tk_state <> Granted && not (Atomic.get s.free_run) do
    Condition.wait tk.tk_cond s.lock
  done;
  Mutex.unlock s.lock;
  (try tk.tk_fn () with e -> tk.tk_exn <- Some e);
  Mutex.lock s.lock;
  tk.tk_state <- Done;
  Condition.signal s.wake;
  Mutex.unlock s.lock

let default_max_steps = 200_000

(* virtual-time tick per scheduling decision: 10 microseconds. Small
   enough that morsel-rate arithmetic stays sane, large enough that a
   5 ms deadline resolves within ~500 decisions. *)
let vtick = 1e-5

let run ?(max_steps = default_max_steps) ?schedule ?(checkers = []) ~seed
    ~tasks () =
  if Atomic.get current_sched <> None then
    invalid_arg "Sched.run: a simulation is already running";
  let prng = Aeq_util.Prng.create seed in
  let tasks =
    Array.of_list
      (List.mapi
         (fun i (name, fn) ->
           {
             tk_id = i;
             tk_name = name;
             tk_fn = fn;
             tk_state = Fresh;
             tk_cond = Condition.create ();
             tk_site = "start";
             tk_exn = None;
           })
         tasks)
  in
  let s =
    { lock = Mutex.create (); wake = Condition.create (); tasks;
      free_run = Atomic.make false }
  in
  (* virtual clock: reads auto-advance by 0.1 ns so an un-instrumented
     spin loop (which the scheduler cannot preempt) still terminates
     eventually instead of freezing virtual time forever *)
  let vclock = Atomic.make 1.0e9 in
  let read_clock () =
    let t = Atomic.get vclock in
    Atomic.set vclock (t +. 1e-10);
    t
  in
  (* install the handler first: it raises if another harness is live,
     and at that point nothing needs unwinding yet *)
  Aeq_util.Probe.install yield_handler;
  Aeq_util.Clock.set_source read_clock;
  Atomic.set current_sched (Some s);
  let decisions = ref [] and trace = ref [] in
  let invariant_failures = ref [] and steps = ref 0 in
  let deadlocked = ref false in
  (* when the race detector is armed, a detected race is just another
     invariant failure: it aborts the run at the next quiescent point,
     so the decision prefix is a deterministic, shrink-able repro. The
     reset clears the dedup table — without it a replay of the same
     race would be silently suppressed and the repro would "pass". *)
  let race_on = Aeq_race.Control.enabled () in
  if race_on then Aeq_race.reset ();
  let drain_races () =
    if race_on then
      List.iter
        (fun r ->
          invariant_failures :=
            (!steps, "race: " ^ Aeq_race.report_to_string r)
            :: !invariant_failures)
        (Aeq_race.take_reports ())
  in
  let forced = ref (Option.value schedule ~default:[]) in
  let forced_mode = schedule <> None in
  Fun.protect
    ~finally:(fun () ->
      (* release everything before joining, whatever happened *)
      Atomic.set s.free_run true;
      Mutex.lock s.lock;
      Array.iter
        (fun tk ->
          if tk.tk_state <> Done then tk.tk_state <- Granted;
          Condition.signal tk.tk_cond)
        s.tasks;
      Mutex.unlock s.lock;
      Aeq_util.Probe.uninstall ();
      Aeq_util.Clock.reset_source ();
      Atomic.set current_sched None)
    (fun () ->
      let domains =
        Array.map (fun tk -> Domain.spawn (task_body s tk)) s.tasks
      in
      let finished () =
        Array.for_all (fun tk -> tk.tk_state = Done) s.tasks
      in
      let abort = ref false in
      Mutex.lock s.lock;
      while (not (finished ())) && not !abort do
        if !steps >= max_steps then begin
          deadlocked := true;
          abort := true
        end
        else begin
          (* checkers run with no task holding the token: the system is
             quiescent, so taking engine locks here cannot deadlock *)
          Mutex.unlock s.lock;
          drain_races ();
          List.iter
            (fun check ->
              List.iter
                (fun msg ->
                  invariant_failures := (!steps, msg) :: !invariant_failures)
                (check ()))
            checkers;
          Mutex.lock s.lock;
          if !invariant_failures <> [] then abort := true
          else begin
            let runnable =
              Array.to_list s.tasks
              |> List.filter (fun tk ->
                     tk.tk_state = Fresh || tk.tk_state = Waiting)
            in
            match runnable with
            | [] ->
              (* every task Done (loop re-checks) or Granted (cannot
                 happen: we wait for the grantee below) *)
              ()
            | _ ->
              let n = List.length runnable in
              let choice =
                match !forced with
                | d :: rest ->
                  forced := rest;
                  ((d mod n) + n) mod n
                | [] ->
                  if forced_mode then !steps mod n (* deterministic tail *)
                  else Aeq_util.Prng.int prng n
              in
              let tk = List.nth runnable choice in
              decisions := choice :: !decisions;
              trace := (tk.tk_name, tk.tk_site) :: !trace;
              incr steps;
              ignore
                (Atomic.set vclock (Atomic.get vclock +. vtick));
              tk.tk_state <- Granted;
              Condition.signal tk.tk_cond;
              (* wait for the token to come back *)
              while tk.tk_state = Granted do
                Condition.wait s.wake s.lock
              done
          end
        end
      done;
      Mutex.unlock s.lock;
      (* free-run whatever is left (abort paths), then join *)
      Atomic.set s.free_run true;
      Mutex.lock s.lock;
      Array.iter
        (fun tk ->
          if tk.tk_state <> Done then tk.tk_state <- Granted;
          Condition.signal tk.tk_cond)
        s.tasks;
      Mutex.unlock s.lock;
      Array.iter Domain.join domains;
      (* catch races detected after the last quiescent checker pass *)
      drain_races ();
      let task_exceptions =
        Array.to_list s.tasks
        |> List.filter_map (fun tk ->
               Option.map
                 (fun e -> (tk.tk_name, Printexc.to_string e))
                 tk.tk_exn)
      in
      {
        seed;
        schedule = List.rev !decisions;
        trace = List.rev !trace;
        steps = !steps;
        invariant_failures = List.rev !invariant_failures;
        task_exceptions;
        deadlocked = !deadlocked;
      })

(* ---- schedule shrinking --------------------------------------------- *)

(* Minimise a failing decision list: first find the shortest failing
   prefix (binary search — failures are near-monotone in the prefix
   because the deterministic tail pads the rest), then ddmin-lite chunk
   removal. [replay] must re-run the system under [~schedule] and
   report whether it still fails; every candidate replay is a full
   deterministic run, so the budget caps the total cost. *)
let shrink ?(budget = 200) ~replay decisions =
  let spent = ref 0 in
  let try_ d =
    if !spent >= budget then false
    else begin
      incr spent;
      replay d
    end
  in
  let arr = Array.of_list decisions in
  let n = Array.length arr in
  let take k = Array.to_list (Array.sub arr 0 k) in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if try_ (take mid) then hi := mid else lo := mid + 1
  done;
  let best = ref (if !hi < n && try_ (take !hi) then take !hi else decisions) in
  let improved = ref true in
  while !improved && !spent < budget do
    improved := false;
    let cur = Array.of_list !best in
    let len = Array.length cur in
    let chunk = ref (max 1 (len / 2)) in
    let continue_ = ref true in
    while !continue_ do
      let i = ref 0 in
      while (not !improved) && !i + !chunk <= len do
        let cand =
          Array.to_list
            (Array.append (Array.sub cur 0 !i)
               (Array.sub cur (!i + !chunk) (len - !i - !chunk)))
        in
        if try_ cand then begin
          best := cand;
          improved := true
        end
        else i := !i + !chunk
      done;
      if !improved || !chunk = 1 || !spent >= budget then continue_ := false
      else chunk := !chunk / 2
    done
  done;
  !best
