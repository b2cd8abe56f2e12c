module Obs = Aeq_obs

type cache_entry = {
  ce_prepared : Aeq_exec.Driver.prepared;
  mutable ce_modes : Aeq_backend.Cost_model.mode list;
      (* pipeline modes at the end of the last adaptive execution *)
  mutable ce_last_used : int; (* LRU tick *)
  mutable ce_admitted : bool; (* in the LRU; false only for the probation entry *)
}

type cache_stats = {
  hits : int;
  misses : int;
  evictions : int;
  unreused : int;
  entries : int;
}

let () = Aeq_race.declare "engine.plan_cache" (Aeq_race.Lock "engine.cache.lock")

(* No execution lock: queries run concurrently over per-execution
   contexts and arena leases (the driver owns that isolation). The
   only serialized section is plan-cache lookup/prepare, guarded by
   cache_lock with single-flight de-duplication of concurrent misses
   on the same text. Every query is a ticket of [scheduler]: admission,
   counters, drain and gauges are the scheduler's.

   The plan cache admits only statements that repeat. A text seen for
   the first time is cached in the single probation slot (its entry is
   in [plan_cache] with [ce_admitted = false]); the next miss on a
   never-seen text drops it before preparing and remembers only its
   hash in [doorkeeper], a FIFO bounded by the capacity. A hit on the
   probation entry, a miss whose hash the doorkeeper holds, and an
   explicit [prepare] admit into the LRU, which holds at most
   [cache_capacity] statements. One-shot generated SQL therefore keeps
   at most one prepared statement resident. *)
type t = {
  catalog : Aeq_storage.Catalog.t;
  pool : Aeq_exec.Pool.t;
  scheduler : Aeq_exec.Scheduler.t;
  cost_model : Aeq_backend.Cost_model.t;
  estimate : Aeq_backend.Calibration.estimate;
  plan_cache : (string, cache_entry) Hashtbl.t;
  cache_lock : Aeq_race.Lock.t;
      (* guards plan_cache, its counters, ce_* fields, preparing *)
  cache_loc : Aeq_race.location;
  prep_done : Condition.t; (* signalled when a single-flight prepare finishes *)
  preparing : (string, unit) Hashtbl.t; (* texts with a prepare in flight *)
  mutable probation : string option; (* the cached text not yet admitted *)
  doorkeeper : int Queue.t; (* hashes of texts dropped from probation, oldest first *)
  mutable cache_enabled : bool;
  mutable cache_capacity : int;
  mutable cache_tick : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_evictions : int;
  mutable cache_unreused : int;
}

let default_cache_capacity = 128

let with_lock m f = Aeq_race.Lock.with_ m f

(* ---- health ---------------------------------------------------------- *)

type health = Serving | Degraded of string list | Draining | Stopped

let health_name = function
  | Serving -> "serving"
  | Degraded _ -> "degraded"
  | Draining -> "draining"
  | Stopped -> "stopped"

(* Read from the pool's workers — the engine's only domains: any
   worker that crashed within the pool's crash window makes the engine
   [Degraded] with one reason per such worker. Reads only — safe from
   any domain, including exporters scraping mid-crash. *)
let health t =
  if Aeq_exec.Pool.closed t.pool then Stopped
  else if Aeq_exec.Scheduler.draining t.scheduler then Draining
  else
    match Aeq_exec.Pool.health_reasons t.pool with
    | [] -> Serving
    | reasons -> Degraded reasons

let health_code = function
  | Serving -> 0
  | Degraded _ -> 1
  | Draining -> 2
  | Stopped -> 3

(* Engine-level gauges: registered unconditionally — the registry is
   cheap and process-wide, and rendering is what observability gates.
   Registering only when enabled-at-create silently lost the gauges
   for engines created before AEQ_OBS / Control.set_enabled turned
   observability on. *)
let register_gauges t =
  Obs.Metrics.gauge_fn "aeq_arena_resident_bytes"
    ~help:"Arena high-water mark: bytes resident across chunks."
    (fun () ->
      Aeq_mem.Arena.resident_bytes (Aeq_storage.Catalog.arena t.catalog));
  Obs.Metrics.gauge_fn "aeq_arena_spare_bytes"
    ~help:"Released scratch chunks pooled for reuse (not counted as resident)."
    (fun () -> Aeq_mem.Arena.spare_bytes (Aeq_storage.Catalog.arena t.catalog));
  Obs.Metrics.gauge_fn "aeq_pool_active_jobs"
    ~help:"Pipeline jobs currently in flight on the worker pool."
    (fun () -> Aeq_exec.Pool.active_jobs t.pool);
  Obs.Metrics.gauge_fn "aeq_pool_busy"
    ~help:"1 while the worker pool is executing at least one job, else 0."
    (fun () -> if Aeq_exec.Pool.busy t.pool then 1 else 0);
  Obs.Metrics.gauge_fn "aeq_plan_cache_entries"
    ~help:"Prepared statements resident in the plan cache."
    (fun () ->
      with_lock t.cache_lock (fun () ->
          Aeq_race.read ~site:"engine.gauge" t.cache_loc;
          Hashtbl.length t.plan_cache));
  let arena () = Aeq_storage.Catalog.arena t.catalog in
  Obs.Metrics.gauge_fn "aeq_arena_scratch_resident_bytes"
    ~help:"Bytes resident in query-scratch chunks (query leases, not loaded tables)."
    (fun () -> Aeq_mem.Arena.scratch_resident_bytes (arena ()));
  Obs.Metrics.gauge_fn "aeq_arena_scratch_peak_bytes"
    ~help:"Highest query-scratch residency seen: the largest set of concurrent query leases."
    (fun () -> Aeq_mem.Arena.peak_scratch_bytes (arena ()));
  Obs.Metrics.gauge_fn "aeq_engine_health"
    ~help:"Engine health state: 0 serving, 1 degraded, 2 draining, 3 stopped."
    (fun () -> health_code (health t));
  Obs.Metrics.gauge_fn "aeq_engine_unhealthy_domains"
    ~help:"Pool workers that crashed within the last second."
    (fun () ->
      match health t with Degraded rs -> List.length rs | _ -> 0)

let create ?n_threads ?cost_model ?scheduler_config () =
  let n_threads =
    match n_threads with
    | Some n -> Stdlib.max 1 n
    | None -> Stdlib.min 8 (Domain.recommended_domain_count ())
  in
  let cost_model = Option.value cost_model ~default:Aeq_backend.Cost_model.default in
  let config = Option.value scheduler_config ~default:Aeq_exec.Scheduler.default_config in
  let pool = Aeq_exec.Pool.create ~n_threads () in
  let t =
    {
      catalog = Aeq_storage.Catalog.create ();
      pool;
      scheduler = Aeq_exec.Scheduler.create ~config ~pool ();
      cost_model;
      estimate = Aeq_backend.Calibration.estimate cost_model;
      plan_cache = Hashtbl.create 64;
      cache_lock = Aeq_race.Lock.create "engine.cache.lock";
      cache_loc = Aeq_race.locate "engine.plan_cache";
      prep_done = Condition.create ();
      preparing = Hashtbl.create 8;
      probation = None;
      doorkeeper = Queue.create ();
      cache_enabled = true;
      cache_capacity = default_cache_capacity;
      cache_tick = 0;
      cache_hits = 0;
      cache_misses = 0;
      cache_evictions = 0;
      cache_unreused = 0;
    }
  in
  register_gauges t;
  t

let load_tpch ?seed t ~scale_factor = Aeq_workload.Tpch.load ?seed ~scale_factor t.catalog

let catalog t = t.catalog

let pool t = t.pool

let n_threads t = Aeq_exec.Pool.n_threads t.pool

let cost_model t = t.cost_model

let speedups t = Aeq_backend.Calibration.current t.estimate

let plan t sql =
  let ast = Obs.Event_log.with_span "parse" (fun () -> Aeq_sql.Parser.parse sql) in
  Obs.Event_log.with_span "plan" (fun () -> Aeq_plan.Planner.plan t.catalog ast)

let explain t sql = Aeq_plan.Explain.to_string (plan t sql)

let set_plan_cache t enabled =
  with_lock t.cache_lock (fun () ->
      Aeq_race.write ~site:"engine.set_plan_cache" t.cache_loc;
      t.cache_enabled <- enabled)

(* under cache_lock: the statements in the LRU, i.e. every cached one
   but the probation entry *)
let admitted t = Hashtbl.length t.plan_cache - if t.probation = None then 0 else 1

(* under cache_lock *)
let evict_down_to t capacity =
  while admitted t > capacity do
    let victim = ref None in
    Hashtbl.iter
      (fun sql e ->
        match !victim with
        | _ when not e.ce_admitted -> ()
        | Some (_, best) when best <= e.ce_last_used -> ()
        | _ -> victim := Some (sql, e.ce_last_used))
      t.plan_cache;
    match !victim with
    | Some (sql, _) ->
      Hashtbl.remove t.plan_cache sql;
      t.cache_evictions <- t.cache_evictions + 1;
      if Obs.Control.enabled () then
        Obs.Metrics.inc
          (Obs.Metrics.counter "aeq_plan_cache_evictions_total"
             ~help:"Prepared statements evicted from the plan cache (LRU).")
    | None -> ()
  done

(* under cache_lock *)
let trim_doorkeeper t =
  while Queue.length t.doorkeeper > t.cache_capacity do
    ignore (Queue.pop t.doorkeeper)
  done

(* under cache_lock: was [sql] dropped from probation lately? A hash
   collision only admits a statement one sighting early. *)
let seen_before t sql =
  let h = Hashtbl.hash sql in
  Queue.fold (fun seen h' -> seen || h' = h) false t.doorkeeper

(* under cache_lock: the probation statement leaves unreused, and only
   its hash stays behind *)
let drop_probation t =
  match t.probation with
  | None -> ()
  | Some sql ->
    Hashtbl.remove t.plan_cache sql;
    t.probation <- None;
    Queue.push (Hashtbl.hash sql) t.doorkeeper;
    trim_doorkeeper t;
    t.cache_unreused <- t.cache_unreused + 1;
    if Obs.Control.enabled () then
      Obs.Metrics.inc
        (Obs.Metrics.counter "aeq_plan_cache_unreused_total"
           ~help:"Prepared statements dropped from the plan cache without ever being reused.")

(* under cache_lock: [e], cached as [sql], joins the LRU *)
let admit t sql e =
  e.ce_admitted <- true;
  if t.probation = Some sql then t.probation <- None;
  evict_down_to t t.cache_capacity

let set_plan_cache_capacity t n =
  with_lock t.cache_lock (fun () ->
      Aeq_race.write ~site:"engine.set_capacity" t.cache_loc;
      t.cache_capacity <- Stdlib.max 1 n;
      evict_down_to t t.cache_capacity;
      trim_doorkeeper t)

let cache_stats t =
  with_lock t.cache_lock (fun () ->
      Aeq_race.read ~site:"engine.cache_stats" t.cache_loc;
      {
        hits = t.cache_hits;
        misses = t.cache_misses;
        evictions = t.cache_evictions;
        unreused = t.cache_unreused;
        entries = Hashtbl.length t.plan_cache;
      })

(* Plan-cache coherence, for the simulator's quiescent-step checkers:
   the LRU respects its capacity, the probation text is cached or the
   slot empty (and the only unadmitted entry), the doorkeeper holds at
   most the capacity, every LRU stamp is within the tick range, no
   text, on probation or admitted, is simultaneously cached and
   in-flight preparing, and no counter has gone negative. Takes
   cache_lock, so call it only while no task is suspended inside a
   cache critical section (the yield points guarantee this under
   simulation). *)
let check t =
  with_lock t.cache_lock (fun () ->
      Aeq_race.read ~site:"engine.check" t.cache_loc;
      let problems = ref [] in
      let add fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
      let n = admitted t in
      if t.cache_enabled && n > t.cache_capacity then
        add "plan cache holds %d admitted entries over capacity %d" n t.cache_capacity;
      (match t.probation with
      | Some sql when not (Hashtbl.mem t.plan_cache sql) ->
        add "probation text %S is not cached" sql
      | _ -> ());
      if Queue.length t.doorkeeper > t.cache_capacity then
        add "doorkeeper holds %d hashes over capacity %d" (Queue.length t.doorkeeper)
          t.cache_capacity;
      Hashtbl.iter
        (fun sql e ->
          if e.ce_admitted = (t.probation = Some sql) then
            add "cache entry %S: admitted %b disagrees with the probation slot" sql
              e.ce_admitted;
          if e.ce_last_used < 0 || e.ce_last_used > t.cache_tick then
            add "cache entry %S: LRU stamp %d outside [0, %d]" sql
              e.ce_last_used t.cache_tick;
          if Hashtbl.mem t.preparing sql then
            add "text %S is both cached and in-flight preparing" sql)
        t.plan_cache;
      if
        t.cache_hits < 0 || t.cache_misses < 0 || t.cache_evictions < 0
        || t.cache_unreused < 0
      then
        add "negative cache counter (hits %d, misses %d, evictions %d, unreused %d)"
          t.cache_hits t.cache_misses t.cache_evictions t.cache_unreused;
      List.rev !problems)

(* under cache_lock *)
let touch t entry =
  t.cache_tick <- t.cache_tick + 1;
  entry.ce_last_used <- t.cache_tick

let note_hit t e =
  t.cache_hits <- t.cache_hits + 1;
  if Obs.Control.enabled () then
    Obs.Metrics.inc
      (Obs.Metrics.counter "aeq_plan_cache_hits_total"
         ~help:"Plan-cache lookups that reused a prepared statement.");
  touch t e

(* Look the statement up, preparing (and possibly evicting) on miss.
   Planning and codegen run OUTSIDE cache_lock — they are the
   expensive part and touch only thread-safe state (catalog reads,
   dictionary encode under its own lock). Concurrent misses on the
   same text single-flight: the first caller prepares, the rest wait
   on [prep_done] and then take the cache hit, which admits the
   entry. [admit_now] (an explicit prepare) admits on install; a
   plain query admits only a text the doorkeeper remembers, and
   otherwise installs it on probation after dropping the previous
   probation entry, before preparing, so that two one-shot statements
   are never both resident on its account. *)
let prepare_entry ?(admit_now = false) t sql =
  let rec lookup () =
    (* yield OUTSIDE the lock: the simulator must never suspend a task
       that holds cache_lock, or every peer deadlocks behind it *)
    Aeq_util.Probe.yield "engine.cache";
    Aeq_race.Lock.lock t.cache_lock;
    Aeq_race.write ~site:"engine.lookup" t.cache_loc;
    match Hashtbl.find_opt t.plan_cache sql with
    | Some e ->
      note_hit t e;
      if not e.ce_admitted then admit t sql e;
      Aeq_race.Lock.unlock t.cache_lock;
      e
    | None ->
      if Hashtbl.mem t.preparing sql then begin
        (* another caller is preparing this text; joining the wait
           (rather than preparing twice) keeps the cache single-entry
           and the duplicated codegen cost off the serving path *)
        if Aeq_util.Probe.simulating () then begin
          (* under simulation a real [Condition.wait] would block a
             task the scheduler thinks is runnable; spin through the
             scheduler instead and re-check on resume *)
          Aeq_race.Lock.unlock t.cache_lock;
          Aeq_util.Probe.yield "engine.singleflight.wait";
          lookup ()
        end
        else begin
          Aeq_race.Lock.wait t.prep_done t.cache_lock;
          Aeq_race.Lock.unlock t.cache_lock;
          lookup ()
        end
      end
      else begin
        t.cache_misses <- t.cache_misses + 1;
        if Obs.Control.enabled () then
          Obs.Metrics.inc
            (Obs.Metrics.counter "aeq_plan_cache_misses_total"
               ~help:"Plan-cache lookups that had to prepare from scratch.");
        let admit_on_install = admit_now || seen_before t sql in
        if not admit_on_install then drop_probation t;
        Hashtbl.replace t.preparing sql ();
        Aeq_race.Lock.unlock t.cache_lock;
        let finish () =
          with_lock t.cache_lock (fun () ->
              Aeq_race.write ~site:"engine.prep_finish" t.cache_loc;
              Hashtbl.remove t.preparing sql;
              Condition.broadcast t.prep_done)
        in
        match
          (* inside the match scrutinee so an injected fault takes the
             exception branch below: [finish] wakes the waiters and the
             preparing claim never leaks *)
          Aeq_util.Probe.hit "compile.singleflight";
          Aeq_exec.Driver.prepare ~estimate:t.estimate ~cost_model:t.cost_model t.catalog
            (plan t sql) ~n_threads:(n_threads t)
        with
        | prepared ->
          let e =
            { ce_prepared = prepared; ce_modes = []; ce_last_used = 0; ce_admitted = false }
          in
          (* publication edge for the race detector: the entry (and the
             compiled artifacts hanging off it) were built outside
             cache_lock; waiters that pick it up after [prep_done] read
             them without ever holding the builder's locks *)
          Aeq_race.publish ();
          with_lock t.cache_lock (fun () ->
              Aeq_race.write ~site:"engine.prep_install" t.cache_loc;
              touch t e;
              if admit_on_install then begin
                Hashtbl.replace t.plan_cache sql e;
                admit t sql e
              end
              else begin
                (* a concurrent first sighting may have filled the slot *)
                drop_probation t;
                Hashtbl.replace t.plan_cache sql e;
                t.probation <- Some sql
              end);
          finish ();
          e
        | exception exn ->
          (* unparseable/unplannable text, an injected fault or crash:
             release the claim and wake waiters so they retry, fail,
             and don't hang on a prepare that will never land *)
          finish ();
          raise exn
      end
  in
  lookup ()

let prepare t sql =
  Aeq_exec.Query_error.protect (fun () -> ignore (prepare_entry ~admit_now:true t sql))

let prepared t sql =
  with_lock t.cache_lock (fun () ->
      Aeq_race.read ~site:"engine.prepared" t.cache_loc;
      Hashtbl.mem t.plan_cache sql)

let cached_executions t sql =
  let entry =
    with_lock t.cache_lock (fun () ->
        Aeq_race.read ~site:"engine.cached_executions" t.cache_loc;
        Hashtbl.find_opt t.plan_cache sql)
  in
  match entry with
  | Some e -> Aeq_exec.Driver.prepared_executions e.ce_prepared
  | None -> 0

(* Per-query accounting: a completed-query counter per requested mode,
   an end-to-end latency histogram, and an error counter per failure
   class. *)
let with_query_obs mode f =
  if not (Obs.Control.enabled ()) then f ()
  else begin
    let t0 = Aeq_util.Clock.now () in
    let finish outcome =
      Obs.Metrics.observe
        (Obs.Metrics.histogram "aeq_query_seconds"
           ~help:"End-to-end query latency as seen by the caller.")
        (Aeq_util.Clock.now () -. t0);
      Obs.Metrics.inc
        (Obs.Metrics.counter "aeq_queries_total"
           ~help:"Queries executed, by requested mode and outcome."
           ~labels:
             [ ("mode", Aeq_exec.Driver.mode_name mode); ("outcome", outcome) ])
    in
    match f () with
    | r ->
      finish "ok";
      r
    | exception e ->
      finish "error";
      (match e with
      | Aeq_exec.Query_error.Error qe ->
        Obs.Metrics.inc
          (Obs.Metrics.counter "aeq_query_errors_total"
             ~help:"Query failures by structured error class."
             ~labels:[ ("error", Aeq_exec.Query_error.label qe) ])
      | _ -> ());
      raise e
  end

(* One execution of [sql]: a ticket's query, which the scheduler runs
   once on a pool worker or on the in-process caller. *)
let execute ?(collect_trace = false) ?memory_budget_bytes ?on_compile_failure t sql :
    Aeq_exec.Scheduler.exec =
 fun ~mode ~cancel ->
  with_query_obs mode @@ fun () ->
  Aeq_exec.Query_error.protect @@ fun () ->
  let cache_enabled =
    with_lock t.cache_lock (fun () ->
        Aeq_race.read ~site:"engine.query" t.cache_loc;
        t.cache_enabled)
  in
  if not cache_enabled then begin
    let p = plan t sql in
    Aeq_exec.Driver.execute ~estimate:t.estimate ~cost_model:t.cost_model ~collect_trace ~cancel
      ?memory_budget_bytes ?on_compile_failure t.catalog p ~mode ~pool:t.pool
  end
  else begin
    (* prepared-statement cache with per-pipeline mode memory (the
       paper's Sec. VI extension): repeated executions of the same
       text reuse the plan AND the compiled artifacts — codegen,
       bytecode translation and machine-code variants are paid once.
       In adaptive mode, pipelines start in the mode they had
       converged to last time. Execution itself takes no engine-wide
       lock: concurrent callers — even of the same cached entry — run
       in parallel over private contexts and arena leases. A failed
       execution leaves the entry cached and reusable (the driver
       guarantees cleanup); only a successful adaptive run updates
       the mode memory. *)
    let entry = prepare_entry t sql in
    let initial_modes =
      with_lock t.cache_lock (fun () ->
          Aeq_race.read ~site:"engine.initial_modes" t.cache_loc;
          (* consume side of the single-flight publication: this caller
             may be reading a prepared entry built by another domain *)
          Aeq_race.consume ();
          if
            Aeq_exec.Driver.prepared_executions entry.ce_prepared > 0
            && mode = Aeq_exec.Driver.Adaptive
          then Some entry.ce_modes
          else None)
    in
    let r =
      Aeq_exec.Driver.execute_prepared ~collect_trace ?initial_modes ~cancel
        ?memory_budget_bytes ?on_compile_failure entry.ce_prepared ~mode ~pool:t.pool
    in
    if mode = Aeq_exec.Driver.Adaptive then
      with_lock t.cache_lock (fun () ->
          Aeq_race.write ~site:"engine.mode_memory" t.cache_loc;
          entry.ce_modes <- r.Aeq_exec.Driver.final_cm_modes);
    r
  end

let query ?mode ?collect_trace ?timeout_seconds ?cancel ?memory_budget_bytes
    ?on_compile_failure t sql =
  (* the deadline rides in the token, set now so that planning and
     preparation count against it; the driver's morsel guard enforces
     it *)
  let cancel =
    match timeout_seconds with
    | None -> cancel
    | Some allowance ->
      let c = match cancel with Some c -> c | None -> Aeq_exec.Cancel.create () in
      Aeq_exec.Cancel.set_deadline c ~at:(Aeq_util.Clock.now () +. allowance) ~allowance;
      Some c
  in
  match
    Aeq_exec.Scheduler.run_inline ?mode ?cancel t.scheduler
      (execute ?collect_trace ?memory_budget_bytes ?on_compile_failure t sql)
  with
  | Ok r -> r
  | Error e -> Aeq_exec.Query_error.raise_error e

(* Translation validation at the whole-query level: the same statement
   through every execution mode (interpreter-only, both up-front
   compilers, adaptive) must produce the same bag of rows — or fail
   identically. Rows are sorted because morsel scheduling makes the
   output order nondeterministic across threads. *)
let verify_query t sql =
  let run mode =
    match query ~mode t sql with
    | r ->
      Ok
        ( List.sort Stdlib.compare r.Aeq_exec.Driver.rows,
          r.Aeq_exec.Driver.names )
    | exception exn -> Error (Printexc.to_string exn)
  in
  let reference = run Aeq_exec.Driver.Bytecode in
  let check problems (name, mode) =
    match (reference, run mode) with
    | Ok (ref_rows, ref_names), Ok (rows, names) ->
      if names <> ref_names then
        Printf.sprintf "mode %s: column names diverge from bytecode" name
        :: problems
      else if rows <> ref_rows then
        Printf.sprintf
          "mode %s: result diverges from bytecode (%d vs %d sorted rows)" name
          (List.length rows) (List.length ref_rows)
        :: problems
      else problems
    | Error _, Error _ ->
      (* both modes reject the query; agreement is what we verify *)
      problems
    | Ok _, Error e ->
      Printf.sprintf "mode %s fails where bytecode succeeds: %s" name e
      :: problems
    | Error e, Ok _ ->
      Printf.sprintf "mode %s succeeds where bytecode fails: %s" name e
      :: problems
  in
  let problems =
    List.fold_left check []
      [
        ("unopt", Aeq_exec.Driver.Unopt);
        ("opt", Aeq_exec.Driver.Opt);
        ("adaptive", Aeq_exec.Driver.Adaptive);
      ]
  in
  match problems with
  | [] -> Ok ()
  | ps -> Error (String.concat "\n" (List.rev ps))

(* ---- concurrent serving --------------------------------------------- *)

let submit ?mode ?priority ?deadline_seconds ?cancel t sql =
  Aeq_exec.Scheduler.submit ?mode ?priority ?deadline_seconds ?cancel t.scheduler
    (execute t sql)

let scheduler_stats t = Aeq_exec.Scheduler.stats t.scheduler

let render_rows t (r : Aeq_exec.Driver.result) =
  List.map
    (fun row -> String.concat "\t" (Aeq_exec.Driver.row_to_strings t.catalog r.Aeq_exec.Driver.dtypes row))
    r.Aeq_exec.Driver.rows

(* ---- observability --------------------------------------------------- *)

let metrics () = Obs.Metrics.snapshot ()

let render_metrics () = Obs.Metrics.render_prometheus ()

let dump_metrics path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Obs.Metrics.render_prometheus ()))

let reset_stats t =
  Obs.Metrics.reset ();
  Obs.Event_log.clear ();
  with_lock t.cache_lock (fun () ->
      Aeq_race.write ~site:"engine.reset_stats" t.cache_loc;
      t.cache_hits <- 0;
      t.cache_misses <- 0;
      t.cache_evictions <- 0;
      t.cache_unreused <- 0);
  Aeq_exec.Scheduler.reset_stats t.scheduler

(* Scheduler first (rejects queued clients, waits for in-flight
   queries, which pool workers and in-process callers serve), then the
   pool. Both are idempotent, so close is. *)
let close t =
  Aeq_exec.Scheduler.shutdown t.scheduler;
  Aeq_exec.Pool.shutdown t.pool

let closed t = Aeq_exec.Pool.closed t.pool

let draining t = Aeq_exec.Scheduler.draining t.scheduler

(* Graceful drain: close admission to queued and in-process tickets,
   let already-admitted work finish, then shut down. The SIGTERM path
   of the wire server. *)
let drain ?(deadline_seconds = 30.0) t =
  let clean = Aeq_exec.Scheduler.drain ~deadline_seconds t.scheduler in
  close t;
  clean
