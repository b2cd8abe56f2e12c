(* Unit tests for the dynamic race detector (Aeq_race): lockset
   violations, happens-before races, the edges that suppress them
   (locks, spawn/join, publication), Domain_local ownership transfer,
   dedup/reset — plus regression tests for the real violations the
   detector and lint surfaced in the engine (the metrics registry lock
   leak). *)

module R = Aeq_race
module A = Aeq_mem.Arena
module Obs = Aeq_obs

(* Each test runs with the detector forced on and drains its own
   reports; location names are per-test so the process-global registry
   never aliases across tests. *)
let with_detector f =
  R.Control.with_enabled true (fun () ->
      R.reset ();
      Fun.protect ~finally:R.reset f)

let reports_for prefix rs =
  List.filter
    (fun (r : R.report) ->
      String.length r.R.r_loc >= String.length prefix
      && String.sub r.R.r_loc 0 (String.length prefix) = prefix)
    rs

let test_disabled_is_silent () =
  R.declare "test.silent" (R.Lock "test.silent.lock");
  let loc = R.locate "test.silent" in
  R.Control.with_enabled false (fun () ->
      R.reset ();
      (* no lock held: a violation if the detector were looking *)
      R.write ~site:"t.a" loc;
      R.read ~site:"t.b" loc;
      Alcotest.(check int) "no reports when disabled" 0 (R.report_count ()))

let test_lockset_violation () =
  R.declare "test.ls" (R.Lock "test.ls.lock");
  let l = R.Lock.create "test.ls.lock" in
  let loc = R.locate "test.ls" in
  with_detector (fun () ->
      R.Lock.with_ l (fun () -> R.write ~site:"t.guarded" loc);
      Alcotest.(check int) "guarded write is clean" 0 (R.report_count ());
      R.write ~site:"t.unguarded" loc;
      let rs = R.take_reports () in
      Alcotest.(check int) "one report" 1 (List.length rs);
      let r = List.hd rs in
      Alcotest.(check string) "names the location" "test.ls" r.R.r_loc;
      Alcotest.(check bool) "lockset kind" true (r.R.r_kind = `Lockset);
      Alcotest.(check string) "names the site" "t.unguarded" r.R.r_site_b)

let test_lock_edges_suppress_race () =
  R.declare "test.lockhb" (R.Lock "test.lockhb.lock");
  let l = R.Lock.create "test.lockhb.lock" in
  let loc = R.locate "test.lockhb" in
  with_detector (fun () ->
      let cell = ref 0 in
      let worker () =
        for _ = 1 to 100 do
          R.Lock.with_ l (fun () ->
              R.write ~site:"t.incr" loc;
              incr cell)
        done
      in
      let d1 = R.spawn worker and d2 = R.spawn worker in
      R.join d1;
      R.join d2;
      Alcotest.(check int) "both ran" 200 !cell;
      Alcotest.(check int) "no reports through the lock" 0 (R.report_count ()))

let test_happens_before_race () =
  R.declare "test.hb" R.Single_writer;
  let loc = R.locate "test.hb" in
  with_detector (fun () ->
      let d1 = R.spawn (fun () -> R.write ~site:"t.w1" loc)
      and d2 = R.spawn (fun () -> R.write ~site:"t.w2" loc) in
      R.join d1;
      R.join d2;
      let rs = reports_for "test.hb" (R.take_reports ()) in
      Alcotest.(check bool) "concurrent writes race" true (rs <> []);
      let r = List.hd rs in
      Alcotest.(check bool) "race kind" true (r.R.r_kind = `Race);
      Alcotest.(check bool) "both sites named" true
        (List.mem r.R.r_site_a [ "t.w1"; "t.w2" ]
        && List.mem r.R.r_site_b [ "t.w1"; "t.w2" ]
        && r.R.r_site_a <> r.R.r_site_b))

let test_spawn_join_edges () =
  R.declare "test.fork" R.Single_writer;
  let loc = R.locate "test.fork" in
  with_detector (fun () ->
      R.write ~site:"t.parent-before" loc;
      let d = R.spawn (fun () -> R.write ~site:"t.child" loc) in
      R.join d;
      R.write ~site:"t.parent-after" loc;
      Alcotest.(check int) "fork/join order all reports" 0 (R.report_count ()))

let test_domain_local_transfer () =
  R.declare "test.dl" R.Domain_local;
  let loc = R.locate "test.dl" in
  with_detector (fun () ->
      (* ownership transfer through the spawn edge: fine *)
      R.write ~site:"t.owner" loc;
      let d = R.spawn (fun () -> R.write ~site:"t.heir" loc) in
      R.join d;
      Alcotest.(check int) "hb transfer is clean" 0 (R.report_count ()));
  R.declare "test.dl2" R.Domain_local;
  let loc2 = R.locate "test.dl2" in
  with_detector (fun () ->
      (* two unordered domains: the second write is a stolen ownership *)
      let d1 = R.spawn (fun () -> R.write ~site:"t.a" loc2)
      and d2 = R.spawn (fun () -> R.write ~site:"t.b" loc2) in
      R.join d1;
      R.join d2;
      Alcotest.(check bool) "unordered transfer reported" true
        (reports_for "test.dl2" (R.take_reports ()) <> []))

let test_publication_edge () =
  R.declare "test.pub" R.Single_writer;
  with_detector (fun () ->
      let loc = R.locate "test.pub" in
      let flag = Atomic.make false in
      let producer () =
        R.write ~site:"t.produce" loc;
        R.publish ();
        Atomic.set flag true
      in
      let consumer () =
        while not (Atomic.get flag) do
          Domain.cpu_relax ()
        done;
        R.consume ();
        R.read ~site:"t.consume" loc
      in
      let d1 = R.spawn producer and d2 = R.spawn consumer in
      R.join d1;
      R.join d2;
      Alcotest.(check int) "published read is ordered" 0 (R.report_count ()));
  (* the same shape WITHOUT the publication edge must be flagged: the
     atomic flag alone is invisible to the detector by design *)
  R.declare "test.pub2" R.Single_writer;
  with_detector (fun () ->
      let loc = R.locate "test.pub2" in
      let flag = Atomic.make false in
      let producer () =
        R.write ~site:"t.produce" loc;
        Atomic.set flag true
      in
      let consumer () =
        while not (Atomic.get flag) do
          Domain.cpu_relax ()
        done;
        R.read ~site:"t.consume" loc
      in
      let d1 = R.spawn producer and d2 = R.spawn consumer in
      R.join d1;
      R.join d2;
      Alcotest.(check bool) "unpublished read reported" true
        (reports_for "test.pub2" (R.take_reports ()) <> []))

let test_dedup_and_reset () =
  R.declare "test.dedup" (R.Lock "test.dedup.lock");
  let loc = R.locate "test.dedup" in
  with_detector (fun () ->
      R.write ~site:"t.same" loc;
      R.write ~site:"t.same" loc;
      R.write ~site:"t.same" loc;
      Alcotest.(check int) "identical violations dedup" 1
        (List.length (R.take_reports ()));
      R.reset ();
      R.write ~site:"t.same" loc;
      Alcotest.(check int) "reset re-arms the dedup table" 1
        (List.length (R.take_reports ())))

let test_registry () =
  R.declare "test.reg" R.Atomic;
  R.declare "test.reg" R.Atomic (* idempotent *);
  Alcotest.check_raises "conflicting redeclare rejected"
    (Invalid_argument
       (Printf.sprintf "Aeq_race.declare: test.reg redeclared as %s (was %s)"
          (R.discipline_to_string (R.Lock "x"))
          (R.discipline_to_string R.Atomic)))
    (fun () -> R.declare "test.reg" (R.Lock "x"));
  Alcotest.check_raises "undeclared locate rejected"
    (Invalid_argument "Aeq_race.locate: undeclared location test.nosuch")
    (fun () -> ignore (R.locate "test.nosuch"));
  (* module initializers of linked subsystems feed the registry; using
     the arena links it *)
  ignore (A.create ~chunk_size:64 ());
  Alcotest.(check bool) "disciplines lists the arena's locations" true
    (List.mem_assoc "arena.chunk_table" (R.disciplines ())
    && List.mem_assoc "obs.metrics.registry" (R.disciplines ()))

(* ---- regressions for the violations the analyses surfaced ----------- *)

(* Metrics.register used to take the registry lock with a bare
   lock/unlock pair; histogram bucket validation raising inside leaked
   the lock and wedged every later registration. *)
let test_metrics_register_does_not_leak_lock () =
  (match
     Obs.Metrics.histogram "test_race_bad_hist" ~buckets:[| 2.0; 1.0 |]
   with
  | _ -> Alcotest.fail "descending buckets must be rejected"
  | exception Invalid_argument _ -> ());
  (* if the registry lock leaked, this would deadlock *)
  Obs.Metrics.inc (Obs.Metrics.counter "test_race_after_bad_hist");
  Alcotest.(check int) "registry still serviceable" 1
    (Obs.Metrics.value (Obs.Metrics.counter "test_race_after_bad_hist"))

let () =
  Alcotest.run "race"
    [
      ( "detector",
        [
          Alcotest.test_case "disabled is silent" `Quick test_disabled_is_silent;
          Alcotest.test_case "lockset violation" `Quick test_lockset_violation;
          Alcotest.test_case "lock edges suppress races" `Quick
            test_lock_edges_suppress_race;
          Alcotest.test_case "happens-before race" `Quick test_happens_before_race;
          Alcotest.test_case "spawn/join edges" `Quick test_spawn_join_edges;
          Alcotest.test_case "domain-local ownership" `Quick
            test_domain_local_transfer;
          Alcotest.test_case "publication edge" `Quick test_publication_edge;
          Alcotest.test_case "dedup and reset" `Quick test_dedup_and_reset;
          Alcotest.test_case "registry" `Quick test_registry;
        ] );
      ( "fixed-violations",
        [
          Alcotest.test_case "metrics register lock" `Quick
            test_metrics_register_does_not_leak_lock;
        ] );
    ]
