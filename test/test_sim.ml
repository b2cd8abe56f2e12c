(* Deterministic concurrency simulation of the real engine (Aeq_sim).

   Four pillars:
   (a) replayability — the same seed produces the same schedule, the
       same yield trace and the same query results, bit for bit;
   (b) bug-finding power — with the historical shared-context bug
       reintroduced behind [Context.unsafe_global_current], a seed
       sweep finds the race within the CI budget, and the shrunk
       schedule still reproduces it;
   (c) resource exhaustion — a per-query memory budget below what a
       query needs yields a structured [Memory_budget_exceeded], never
       a crash, a hang or a leak;
   (d) targeted interleavings — a forced schedule drives the
       release-vs-grab race deterministically into [Stale_allocator].

   Every simulated engine runs with [n_threads = 1]: the pool spawns
   no worker domains, so pipeline jobs execute inline inside the
   simulated tasks and the token-passing scheduler sees every step. *)

module Sim = Aeq_sim.Sched
module CM = Aeq_backend.Cost_model
module Driver = Aeq_exec.Driver
module QE = Aeq_exec.Query_error
module A = Aeq_mem.Arena

let sf = 0.002

let fresh_engine () =
  let engine = Aeq.Engine.create ~n_threads:1 ~cost_model:CM.off () in
  Aeq.Engine.load_tpch engine ~scale_factor:sf;
  engine

let with_engine f =
  let engine = fresh_engine () in
  Fun.protect ~finally:(fun () -> Aeq.Engine.close engine) (fun () -> f engine)

let arena_of engine = Aeq_storage.Catalog.arena (Aeq.Engine.catalog engine)

let checkers engine =
  let arena = arena_of engine in
  let pool = Aeq.Engine.pool engine in
  [
    (fun () -> A.check arena);
    (fun () -> Aeq_exec.Pool.check pool);
    (fun () -> Aeq.Engine.check engine);
  ]

let sorted (r : Driver.result) = List.sort Stdlib.compare r.Driver.rows

let sql_count = "select count(*) as n from lineitem"

let sql_sum = "select sum(l_quantity) as s from lineitem"

let sql_group =
  "select l_returnflag, sum(l_quantity) as s from lineitem group by l_returnflag"

(* reference results, computed once on a plain sequential engine *)
let reference =
  lazy
    (with_engine (fun engine ->
         List.map
           (fun sql ->
             (sql, sorted (Aeq.Engine.query engine ~mode:Driver.Bytecode sql)))
           [ sql_count; sql_sum; sql_group ]))

let expected sql = List.assoc sql (Lazy.force reference)

(* a task that runs one query and records how it went *)
let query_task engine sql log name =
 fun () ->
  match Aeq.Engine.query engine ~mode:Driver.Bytecode sql with
  | r ->
    if sorted r = expected sql then log := (name, "ok") :: !log
    else log := (name, "WRONG RESULT") :: !log
  | exception QE.Error e -> log := (name, "error: " ^ QE.to_string e) :: !log

(* ---- (a) seed replayability ------------------------------------------ *)

let run_pair ~seed ?schedule () =
  (* force the reference OUTSIDE the simulation: Lazy is not
     domain-safe, and two simulated tasks racing the first force would
     fail inside the harness rather than the engine *)
  ignore (Lazy.force reference);
  with_engine (fun engine ->
      let log = ref [] in
      let outcome =
        Sim.run ?schedule ~checkers:(checkers engine) ~seed
          ~tasks:
            [
              ("count", query_task engine sql_count log "count");
              ("sum", query_task engine sql_sum log "sum");
              ("group", query_task engine sql_group log "group");
              (* a second sighting of the count text: depending on the
                 interleaving it hits the probation entry, waits on the
                 in-flight prepare, or misses after the others dropped
                 it, and each way admits it — with [Engine.check]
                 watching the probation slot and doorkeeper throughout *)
              ("recount", query_task engine sql_count log "recount");
            ]
          ()
      in
      (outcome, List.sort compare !log))

let test_seed_replayability () =
  let o1, log1 = run_pair ~seed:0xD15EA5EL ()
  and o2, log2 = run_pair ~seed:0xD15EA5EL () in
  Alcotest.(check bool) "no failure on the sound engine" false (Sim.failed o1);
  Alcotest.(check (list (pair string string))) "same results" log1 log2;
  Alcotest.(check (list int)) "same schedule" o1.Sim.schedule o2.Sim.schedule;
  Alcotest.(check (list (pair string string)))
    "same yield trace" o1.Sim.trace o2.Sim.trace;
  Alcotest.(check int) "same step count" o1.Sim.steps o2.Sim.steps;
  (* a different seed must take a different interleaving (the
     scheduler is actually exercising choice, not round-robin) *)
  let o3, log3 = run_pair ~seed:0xFEEDL () in
  Alcotest.(check bool) "other seed still sound" false (Sim.failed o3);
  Alcotest.(check (list (pair string string))) "results seed-independent" log1 log3;
  Alcotest.(check bool)
    "different seed, different schedule" true
    (o1.Sim.schedule <> o3.Sim.schedule)

(* ---- decisions replay across engines --------------------------------- *)

(* Free compiles: the first decision with a rate promotes. Idle tasks
   share the schedule with the query, so virtual time passes between
   its morsels and the controller's 1 ms warm-up ends mid-pipeline. *)
let eager =
  { CM.off with unopt_base = 0.0; unopt_per_instr = 0.0; opt_base = 0.0; opt_per_instr = 0.0;
    opt_quad = 0.0 }

let adaptive_decisions ~seed =
  let engine = Aeq.Engine.create ~n_threads:1 ~cost_model:eager () in
  Aeq.Engine.load_tpch engine ~scale_factor:sf;
  Fun.protect
    ~finally:(fun () -> Aeq.Engine.close engine)
    (fun () ->
      Aeq_obs.Event_log.clear ();
      let idle name = (name, fun () -> for _ = 1 to 100 do Aeq_util.Probe.yield "test.idle" done) in
      let o =
        Sim.run ~checkers:(checkers engine) ~seed
          ~tasks:
            (( "adaptive",
               fun () -> ignore (Aeq.Engine.query engine ~mode:Driver.Adaptive sql_sum) )
            :: List.init 7 (fun i -> idle (Printf.sprintf "idle%d" i)))
          ()
      in
      Alcotest.(check bool) "sound run" false (Sim.failed o);
      let decisions =
        List.filter_map
          (fun (e : Aeq_obs.Event_log.event) ->
            match e.kind with
            | Aeq_obs.Event_log.Decision d -> Some (e.pipeline, d)
            | Aeq_obs.Event_log.Span _ -> None)
          (Aeq_obs.Event_log.snapshot ())
      in
      Aeq_obs.Event_log.clear ();
      (decisions, Aeq.Engine.speedups engine))

(* Each engine prices tiers with its own estimate: a second engine in
   the same process replays the first one's decisions, prices
   included, although the first one's switches moved its estimate. *)
let test_engines_replay_decisions () =
  Aeq_obs.Control.with_enabled true (fun () ->
      let d1, learned = adaptive_decisions ~seed:0xADA97L in
      let d2, _ = adaptive_decisions ~seed:0xADA97L in
      Alcotest.(check bool)
        "a promotion was logged" true
        (List.exists
           (fun (_, d) -> match d.Aeq_obs.Event_log.d_action with Promote _ -> true | Stay -> false)
           d1);
      Alcotest.(check bool)
        "the first engine's estimate moved" true
        (learned <> Aeq_backend.Calibration.(current (estimate eager)));
      Alcotest.(check int) "as many decisions" (List.length d1) (List.length d2);
      Alcotest.(check bool) "identical decisions" true (d1 = d2))

(* ---- (b) finding the historical shared-context race ------------------ *)

(* One run of the two-query workload with the pre-per-query-context
   bug reintroduced. Returns (bug observed?, outcome). The bug
   manifests as a wrong result (one query's writes routed into the
   other's runtime objects) or as a structured error (allocating
   through the victim's already-released lease). *)
let race_run ~seed ?schedule () =
  Atomic.set Aeq_rt.Context.unsafe_global_current true;
  Fun.protect
    ~finally:(fun () -> Atomic.set Aeq_rt.Context.unsafe_global_current false)
    (fun () ->
      with_engine (fun engine ->
          let log = ref [] in
          let outcome =
            Sim.run ?schedule ~checkers:(checkers engine) ~seed
              ~tasks:
                [
                  ("count", query_task engine sql_count log "count");
                  ("sum", query_task engine sql_sum log "sum");
                ]
              ()
          in
          let bug =
            Sim.failed outcome
            || List.exists (fun (_, s) -> s <> "ok") !log
          in
          (bug, outcome)))

let seed_budget = 40

let test_finds_shared_context_race () =
  ignore (Lazy.force reference);
  let found = ref None in
  let seed = ref 1 in
  while !found = None && !seed <= seed_budget do
    let bug, outcome = race_run ~seed:(Int64.of_int !seed) () in
    if bug then found := Some (Int64.of_int !seed, outcome);
    incr seed
  done;
  match !found with
  | None ->
    Alcotest.failf "race not found within %d seeds — the simulator lost its teeth"
      seed_budget
  | Some (seed, outcome) ->
    (* replaying the recorded schedule must reproduce the bug... *)
    let bug_again, _ = race_run ~seed ~schedule:outcome.Sim.schedule () in
    Alcotest.(check bool) "recorded schedule replays the bug" true bug_again;
    (* ...and so must the shrunk schedule, with fewer decisions *)
    let replay sched = fst (race_run ~seed ~schedule:sched ()) in
    let shrunk = Sim.shrink ~budget:40 ~replay outcome.Sim.schedule in
    Alcotest.(check bool)
      (Printf.sprintf "shrunk repro (%d -> %d decisions) still fails"
         (List.length outcome.Sim.schedule)
         (List.length shrunk))
      true (replay shrunk);
    Alcotest.(check bool)
      "shrinking did not grow the schedule" true
      (List.length shrunk <= List.length outcome.Sim.schedule);
    (* the repro line is what a human pastes into a replay *)
    Alcotest.(check bool) "repro string mentions the seed" true
      (String.length (Sim.repro_string outcome) > 0)

(* ---- (b2) the dynamic race detector inside the simulator ------------- *)

(* The detector catches the same resurrected bug a different way: not
   by its symptom (wrong rows, stale lease) but by the access pattern
   itself — two sim tasks touching the Domain_local
   [rt.context.global_current] with no happens-before edge. Sim tasks
   run in raw-spawned domains on purpose: only the token hand-off
   orders them in real time, and the detector rightly does not treat
   that as synchronization. *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

let detector_reported outcome =
  List.exists
    (fun (_, m) ->
      contains m "race:" && contains m "rt.context.global_current")
    outcome.Sim.invariant_failures

let detector_race_run ~seed ?schedule () =
  Aeq_race.Control.with_enabled true (fun () ->
      Atomic.set Aeq_rt.Context.unsafe_global_current true;
      Fun.protect
        ~finally:(fun () ->
          Atomic.set Aeq_rt.Context.unsafe_global_current false)
        (fun () ->
          with_engine (fun engine ->
              let log = ref [] in
              let outcome =
                Sim.run ?schedule ~checkers:(checkers engine) ~seed
                  ~tasks:
                    [
                      ("count", query_task engine sql_count log "count");
                      ("sum", query_task engine sql_sum log "sum");
                    ]
                  ()
              in
              (detector_reported outcome, outcome))))

let test_detector_flags_context_race () =
  ignore (Lazy.force reference);
  let found = ref None in
  let seed = ref 1 in
  while !found = None && !seed <= seed_budget do
    let hit, outcome = detector_race_run ~seed:(Int64.of_int !seed) () in
    if hit then found := Some (Int64.of_int !seed, outcome);
    incr seed
  done;
  match !found with
  | None ->
    Alcotest.failf
      "detector missed the shared-context race within %d seeds" seed_budget
  | Some (seed, outcome) ->
    Alcotest.(check bool) "a race is a failure" true (Sim.failed outcome);
    (* the recorded schedule replays the detector report *)
    let hit_again, _ =
      detector_race_run ~seed ~schedule:outcome.Sim.schedule ()
    in
    Alcotest.(check bool) "recorded schedule replays the report" true hit_again;
    (* and the report survives shrinking, like any other failure *)
    let replay sched = fst (detector_race_run ~seed ~schedule:sched ()) in
    let shrunk = Sim.shrink ~budget:40 ~replay outcome.Sim.schedule in
    Alcotest.(check bool)
      (Printf.sprintf "shrunk repro (%d -> %d decisions) still reports"
         (List.length outcome.Sim.schedule)
         (List.length shrunk))
      true (replay shrunk)

(* the sound engine must be silent under the detector: every lock goes
   through Aeq_race.Lock and every publication through publish/consume,
   so a report here is a false positive (or a real bug) *)
let test_detector_no_false_positives () =
  ignore (Lazy.force reference);
  Aeq_race.Control.with_enabled true (fun () ->
      for seed = 1 to 6 do
        let o, log = run_pair ~seed:(Int64.of_int seed) () in
        List.iter
          (fun (steps, m) ->
            if contains m "race:" then
              Alcotest.failf "seed %d step %d: detector false positive: %s"
                seed steps m)
          o.Sim.invariant_failures;
        if Sim.failed o then
          Alcotest.failf "seed %d failed under the detector: %s" seed
            (Sim.repro_string o);
        List.iter
          (fun (name, s) ->
            if s <> "ok" then Alcotest.failf "seed %d task %s: %s" seed name s)
          log
      done)

(* the same workload with the flag OFF must be sound on every seed the
   finder needed — the finder detects the bug, not the harness *)
let test_no_false_positives () =
  ignore (Lazy.force reference);
  for seed = 1 to 10 do
    let o, log = run_pair ~seed:(Int64.of_int seed) () in
    if Sim.failed o then
      Alcotest.failf "seed %d failed on the sound engine: %s" seed
        (Sim.repro_string o);
    List.iter
      (fun (name, s) ->
        if s <> "ok" then Alcotest.failf "seed %d task %s: %s" seed name s)
      log
  done

(* ---- (c) memory-budget exhaustion under simulation ------------------ *)

let test_memory_budget_structured_failure () =
  with_engine (fun engine ->
      (* warm the plan so the simulated run measures execution only *)
      ignore (Aeq.Engine.query engine ~mode:Driver.Bytecode sql_group);
      let arena = arena_of engine in
      let chunks0 = A.live_chunks arena and resident0 = A.resident_bytes arena in
      (* budget below one query's scratch: every execution must fail —
         with the structured error, not a crash or a hang *)
      let got = ref [] in
      let task () =
        match
          Aeq.Engine.query engine ~mode:Driver.Bytecode ~memory_budget_bytes:64
            sql_group
        with
        | _ -> got := "rows" :: !got
        | exception QE.Error (QE.Memory_budget_exceeded _) ->
          got := "budget" :: !got
        | exception e -> got := Printexc.to_string e :: !got
      in
      let outcome =
        Sim.run ~checkers:(checkers engine) ~seed:0xCAFEL
          ~tasks:[ ("starved-a", task); ("starved-b", task) ]
          ()
      in
      Alcotest.(check bool) "simulation completed" false (Sim.failed outcome);
      Alcotest.(check (list string))
        "both executions failed with the structured error"
        [ "budget"; "budget" ] !got;
      Alcotest.(check int) "no chunk leaked" chunks0 (A.live_chunks arena);
      Alcotest.(check int) "resident back to baseline" resident0
        (A.resident_bytes arena);
      Alcotest.(check int) "scratch drained" 0 (A.scratch_resident_bytes arena);
      Alcotest.(check (list string)) "arena coherent" [] (A.check arena))

(* ---- (d) forced-schedule Stale_allocator ----------------------------- *)

let test_forced_stale_allocator () =
  let run_once () =
    let arena = A.create ~chunk_size:1024 () in
    let chunks0 = A.live_chunks arena in
    let lease = A.lease arena in
    let alloc = A.lease_allocator lease in
    let events = ref [] in
    let query () =
      (* two grabs, each yielding at [arena.alloc]; the reaper strikes
         between them *)
      match
        ignore (A.alloc alloc 900);
        events := "first-alloc-ok" :: !events;
        ignore (A.alloc alloc 900)
      with
      | () -> events := "second-alloc-ok" :: !events
      | exception A.Stale_allocator -> events := "stale" :: !events
    in
    let reaper () =
      A.release lease;
      events := "released" :: !events
    in
    (* decisions: run the query through its first grab and up to the
       second, slip the reaper's release in between, then let the
       query resume into the staled lease; the round-robin tail
       finishes whatever is left *)
    let schedule = [ 0; 0; 1; 1; 0 ] in
    let outcome =
      Sim.run ~schedule
        ~checkers:[ (fun () -> A.check arena) ]
        ~seed:0L
        ~tasks:[ ("query", query); ("reaper", reaper) ]
        ()
    in
    (outcome, List.rev !events, (chunks0, A.live_chunks arena), A.check arena)
  in
  let o1, ev1, (chunks0, chunks1), errs1 = run_once () in
  let o2, ev2, _, _ = run_once () in
  Alcotest.(check bool) "no harness failure" false (Sim.failed o1);
  Alcotest.(check (list string)) "deterministic events" ev1 ev2;
  Alcotest.(check (list int)) "deterministic schedule" o1.Sim.schedule o2.Sim.schedule;
  Alcotest.(check bool)
    (Printf.sprintf "stale raced grab detected (events: %s)"
       (String.concat "," ev1))
    true
    (List.mem "stale" ev1);
  (* the raced grab must not have leaked a slot past the release *)
  Alcotest.(check int) "no slot leaked by the raced grab" chunks0 chunks1;
  Alcotest.(check (list string)) "arena coherent" [] errs1

(* ---- randomized sweep (CI artifact producer) ------------------------- *)

(* Opt-in via AEQ_SIM_SWEEP=<n seeds>. Runs the sound engine (no bug
   flag) across a seed range; any failure is shrunk and written to
   AEQ_SIM_REPRO (default sim_repro.txt) so CI can upload it. *)
let test_sweep () =
  match Sys.getenv_opt "AEQ_SIM_SWEEP" with
  | None | Some "" -> ()
  | Some n ->
    ignore (Lazy.force reference);
    let n = match int_of_string_opt n with Some n when n > 0 -> n | _ -> 25 in
    let base = 0x5EED_0000 in
    for i = 1 to n do
      let seed = Int64.of_int (base + i) in
      let o, log = run_pair ~seed () in
      let bad = List.filter (fun (_, s) -> s <> "ok") log in
      if Sim.failed o || bad <> [] then begin
        let replay sched =
          let o, log = run_pair ~seed ~schedule:sched () in
          Sim.failed o || List.exists (fun (_, s) -> s <> "ok") log
        in
        let shrunk = Sim.shrink ~budget:60 ~replay o.Sim.schedule in
        let path =
          Option.value (Sys.getenv_opt "AEQ_SIM_REPRO") ~default:"sim_repro.txt"
        in
        let oc = open_out path in
        Printf.fprintf oc "%s\nshrunk=[%s]\ntasks: %s\n" (Sim.repro_string o)
          (String.concat ";" (List.map string_of_int shrunk))
          (String.concat ", "
             (List.map (fun (t, s) -> t ^ ": " ^ s) (bad @ [])));
        close_out oc;
        Alcotest.failf "sweep seed 0x%Lx failed; shrunk repro in %s" seed path
      end
    done

let () =
  Alcotest.run "sim"
    [
      ( "determinism",
        [
          Alcotest.test_case "seed replayability" `Quick test_seed_replayability;
          Alcotest.test_case "no false positives" `Quick test_no_false_positives;
          Alcotest.test_case "engines replay adaptive decisions" `Quick
            test_engines_replay_decisions;
        ] );
      ( "race-finding",
        [
          Alcotest.test_case "finds the shared-context race" `Quick
            test_finds_shared_context_race;
          Alcotest.test_case "forced-schedule stale allocator" `Quick
            test_forced_stale_allocator;
          Alcotest.test_case "detector flags the context race" `Quick
            test_detector_flags_context_race;
          Alcotest.test_case "detector: no false positives" `Quick
            test_detector_no_false_positives;
        ] );
      ( "exhaustion",
        [
          Alcotest.test_case "memory budget: structured failure" `Quick
            test_memory_budget_structured_failure;
        ] );
      ( "sweep", [ Alcotest.test_case "randomized sweep" `Quick test_sweep ] );
    ]
