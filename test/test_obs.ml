(* Tests for the observability subsystem: the JSON codec, the metrics
   registry (including its Prometheus exposition and multi-domain
   safety), the event log of lifecycle spans and adaptive decisions,
   the bounded ring it shares with the execution trace, the Chrome
   trace exporter, and the engine-level reset semantics. *)

module M = Aeq_obs.Metrics
module J = Aeq_obs.Json
module Ring = Aeq_obs.Ring
module Log = Aeq_obs.Event_log
module Trace = Aeq_exec.Trace
module Control = Aeq_obs.Control
module CM = Aeq_backend.Cost_model
module Driver = Aeq_exec.Driver

(* ---- JSON codec --------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("s", J.Str "a\"b\\c\nd\tü");
        ("n", J.Num 3.25);
        ("i", J.Num 42.0);
        ("neg", J.Num (-17.0));
        ("b", J.Bool true);
        ("z", J.Null);
        ("arr", J.Arr [ J.Num 1.0; J.Str ""; J.Obj []; J.Arr [] ]);
      ]
  in
  match J.parse (J.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round-trips" true (v = v')
  | Error m -> Alcotest.fail ("parse failed: " ^ m)

let test_json_parse_rejects_garbage () =
  List.iter
    (fun s ->
      match J.parse s with
      | Ok _ -> Alcotest.fail ("accepted garbage: " ^ s)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}" ]

let test_json_unicode_escape () =
  match J.parse {|"Aé"|} with
  | Ok (J.Str s) -> Alcotest.(check string) "decoded" "A\xc3\xa9" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error m -> Alcotest.fail m

let test_json_rejects_nonfinite () =
  Alcotest.check_raises "nan" (Invalid_argument "Json.to_string: non-finite number")
    (fun () -> ignore (J.to_string (J.Num Float.nan)))

(* ---- metrics registry --------------------------------------------- *)

let test_counter_gauge_histogram () =
  let r = M.create () in
  let c = M.counter ~registry:r "c_total" in
  M.inc c;
  M.add c 4;
  Alcotest.(check int) "counter" 5 (M.value c);
  (* get-or-create: same identity, same cell *)
  M.inc (M.counter ~registry:r "c_total");
  Alcotest.(check int) "shared" 6 (M.value c);
  (* distinct labels are distinct series *)
  let c2 = M.counter ~registry:r ~labels:[ ("k", "v") ] "c_total" in
  M.inc c2;
  Alcotest.(check int) "unlabelled untouched" 6 (M.value c);
  let g = M.gauge ~registry:r "g" in
  M.set g 42;
  Alcotest.(check int) "gauge" 42 (M.gauge_value g);
  let h = M.histogram ~registry:r ~buckets:[| 0.1; 1.0 |] "h_seconds" in
  M.observe h 0.0625;
  M.observe h 0.5;
  M.observe h 5.0;
  let samples = M.snapshot ~registry:r () in
  let hist = List.find (fun s -> s.M.s_name = "h_seconds") samples in
  (match hist.M.s_value with
  | M.Histogram { buckets; sum; count } ->
    Alcotest.(check int) "count" 3 count;
    Alcotest.(check (float 1e-9)) "sum" 5.5625 sum;
    Alcotest.(check int) "bucket count" 3 (Array.length buckets);
    Alcotest.(check int) "cumulative le=0.1" 1 (snd buckets.(0));
    Alcotest.(check int) "cumulative le=1" 2 (snd buckets.(1));
    Alcotest.(check int) "cumulative +Inf" 3 (snd buckets.(2))
  | _ -> Alcotest.fail "expected a histogram sample")

let test_prometheus_exposition_golden () =
  let r = M.create () in
  let c =
    M.counter ~registry:r ~help:"Requests served."
      ~labels:[ ("mode", "a\"b\\c\nd") ]
      "req_total"
  in
  M.add c 3;
  M.set (M.gauge ~registry:r ~help:"Queue depth." "depth") 7;
  let h = M.histogram ~registry:r ~help:"Latency." ~buckets:[| 0.1; 1.0 |] "lat_seconds" in
  M.observe h 0.0625;
  M.observe h 0.5;
  M.observe h 5.0;
  let expected =
    String.concat ""
      [
        "# HELP depth Queue depth.\n";
        "# TYPE depth gauge\n";
        "depth 7\n";
        "# HELP lat_seconds Latency.\n";
        "# TYPE lat_seconds histogram\n";
        "lat_seconds_bucket{le=\"0.1\"} 1\n";
        "lat_seconds_bucket{le=\"1\"} 2\n";
        "lat_seconds_bucket{le=\"+Inf\"} 3\n";
        "lat_seconds_sum 5.5625\n";
        "lat_seconds_count 3\n";
        "# HELP req_total Requests served.\n";
        "# TYPE req_total counter\n";
        "req_total{mode=\"a\\\"b\\\\c\\nd\"} 3\n";
      ]
  in
  Alcotest.(check string) "exposition" expected (M.render_prometheus ~registry:r ())

let test_metrics_multi_domain_hammer () =
  (* satellite (a): telemetry bumped from worker domains must not lose
     updates — 4 domains hammer one counter and one histogram *)
  let r = M.create () in
  let c = M.counter ~registry:r "hammer_total" in
  let h = M.histogram ~registry:r ~buckets:[| 1.0 |] "hammer_seconds" in
  let per_domain = 50_000 in
  let worker () =
    for _ = 1 to per_domain do
      M.inc c;
      M.observe h 0.5
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  Alcotest.(check int) "counter" (4 * per_domain) (M.value c);
  match
    (List.find (fun s -> s.M.s_name = "hammer_seconds") (M.snapshot ~registry:r ()))
      .M.s_value
  with
  | M.Histogram { buckets; sum; count } ->
    Alcotest.(check int) "histogram count" (4 * per_domain) count;
    Alcotest.(check (float 1e-6)) "histogram sum" (0.5 *. float_of_int (4 * per_domain)) sum;
    Alcotest.(check int) "first bucket" (4 * per_domain) (snd buckets.(0))
  | _ -> Alcotest.fail "expected a histogram sample"

let test_metrics_reset () =
  let r = M.create () in
  let c = M.counter ~registry:r "c_total" in
  M.add c 9;
  let g = M.gauge ~registry:r "g" in
  M.set g 5;
  M.gauge_fn ~registry:r "g_fn" (fun () -> 11);
  let h = M.histogram ~registry:r ~buckets:[| 1.0 |] "h_seconds" in
  M.observe h 0.5;
  M.reset ~registry:r ();
  Alcotest.(check int) "counter zeroed" 0 (M.value c);
  Alcotest.(check int) "gauge kept" 5 (M.gauge_value g);
  let samples = M.snapshot ~registry:r () in
  (match (List.find (fun s -> s.M.s_name = "g_fn") samples).M.s_value with
  | M.Gauge v -> Alcotest.(check int) "callback gauge still registered" 11 v
  | _ -> Alcotest.fail "expected gauge");
  match (List.find (fun s -> s.M.s_name = "h_seconds") samples).M.s_value with
  | M.Histogram { sum; count; _ } ->
    Alcotest.(check int) "histogram count zeroed" 0 count;
    Alcotest.(check (float 0.0)) "histogram sum zeroed" 0.0 sum
  | _ -> Alcotest.fail "expected histogram"

(* ---- spans -------------------------------------------------------- *)

let span_names () =
  List.filter_map
    (fun (e : Log.event) -> match e.kind with Log.Span n -> Some n | Log.Decision _ -> None)
    (Log.snapshot ())

let decisions () =
  List.filter_map
    (fun (e : Log.event) -> match e.kind with Log.Decision d -> Some d | Log.Span _ -> None)
    (Log.snapshot ())

let stay_decision =
  {
    Log.d_mode = "bytecode";
    d_processed = 100;
    d_remaining = 900;
    d_rate = 1e6;
    d_stay_seconds = 0.9;
    d_candidates = [];
    d_action = Log.Stay;
    d_reason = "test";
  }

let test_spans_disabled_noop () =
  Control.with_enabled false (fun () ->
      Log.clear ();
      let r = Log.with_span "x" (fun () -> 41 + 1) in
      Alcotest.(check int) "value passes through" 42 r;
      Log.span "x" ~t0:0.0 ~t1:1.0;
      Log.decision ~pipeline:0 stay_decision;
      Alcotest.(check int) "nothing recorded" 0 (List.length (Log.snapshot ())))

let test_spans_record_on_raise () =
  Control.with_enabled true (fun () ->
      Log.clear ();
      (try Log.with_span "fails" (fun () -> failwith "boom") with Failure _ -> ());
      match Log.snapshot () with
      | [ { kind = Log.Span name; t0; t1; _ } ] ->
        Alcotest.(check string) "span name" "fails" name;
        Alcotest.(check bool) "positive duration" true (t1 >= t0);
        Log.clear ()
      | l -> Alcotest.fail (Printf.sprintf "expected 1 span, got %d" (List.length l)))

(* ---- decision log ------------------------------------------------- *)

(* The Fig. 7 evaluation with its working shown: stay-projection and
   candidate totals must follow the paper's formulas, and the decision
   must pick the cheapest projection. *)
let test_evaluate_shows_its_working () =
  let model = CM.default in
  let speedups = { Aeq_backend.Calibration.speedup_unopt = 2.0; speedup_opt = 3.0 } in
  let remaining = 10_000_000 and rate = 1e6 and w = 4 and n_instrs = 1000 in
  let ev =
    Aeq_exec.Adaptive.evaluate ~speedups
      ~compile_unopt:(CM.compile_time model CM.Unopt n_instrs)
      ~compile_opt:(CM.compile_time model CM.Opt n_instrs)
      ~current_mode:CM.Bytecode ~remaining ~rate ~n_threads:w ()
  in
  let fw = float_of_int w in
  Alcotest.(check (float 1e-9))
    "stay projection"
    (float_of_int remaining /. rate /. fw)
    ev.Aeq_exec.Adaptive.ev_stay_seconds;
  let check_candidate mode =
    let c =
      List.find
        (fun c -> c.Aeq_exec.Adaptive.cand_mode = mode)
        ev.Aeq_exec.Adaptive.ev_candidates
    in
    let compile = CM.compile_time model mode n_instrs in
    let during = (fw -. 1.0) *. rate *. compile in
    let leftover = Stdlib.max (float_of_int remaining -. during) 0.0 in
    let cand_speedup =
      match mode with
      | CM.Opt -> speedups.Aeq_backend.Calibration.speedup_opt
      | _ -> speedups.Aeq_backend.Calibration.speedup_unopt
    in
    let cand_rate = rate *. cand_speedup in
    let expected = compile +. (leftover /. cand_rate /. fw) in
    Alcotest.(check (float 1e-9))
      (CM.mode_name mode ^ " projection")
      expected c.Aeq_exec.Adaptive.cand_seconds;
    Alcotest.(check (float 0.0))
      (CM.mode_name mode ^ " priced with the given speedup")
      cand_speedup c.Aeq_exec.Adaptive.cand_speedup;
    Alcotest.(check bool)
      (CM.mode_name mode ^ " not blacklisted")
      false c.Aeq_exec.Adaptive.cand_blacklisted;
    c
  in
  let cu = check_candidate CM.Unopt in
  let co = check_candidate CM.Opt in
  (* 10 s of bytecode work: some compiled candidate must win, and the
     decision must be the argmin of the projections *)
  match ev.Aeq_exec.Adaptive.ev_decision with
  | Aeq_exec.Adaptive.Compile m ->
    let best =
      if co.Aeq_exec.Adaptive.cand_seconds <= cu.Aeq_exec.Adaptive.cand_seconds then CM.Opt
      else CM.Unopt
    in
    Alcotest.(check string) "argmin chosen" (CM.mode_name best) (CM.mode_name m)
  | Aeq_exec.Adaptive.Do_nothing -> Alcotest.fail "10 s of work must trigger compilation"

let test_decision_log_records_promotion () =
  (* satellite (d): a forced bytecode→compiled promotion must land in
     the decision log with the extrapolation that justified it *)
  Control.with_enabled true (fun () ->
      Log.clear ();
      (* huge claimed speedups, real (unsimulated) compile latencies:
         the first evaluation with a rate sample promotes *)
      let cost_model = CM.with_speedups CM.off ~unopt:50.0 ~opt:100.0 in
      let e = Aeq.Engine.create ~n_threads:2 ~cost_model () in
      Aeq.Engine.load_tpch e ~scale_factor:0.01;
      let _r =
        Aeq.Engine.query e ~mode:Driver.Adaptive "select count(*) from lineitem"
      in
      let entries = decisions () in
      Alcotest.(check bool) "controller evaluations logged" true (entries <> []);
      let promotions =
        List.filter
          (fun d -> match d.Log.d_action with Log.Promote _ -> true | Log.Stay -> false)
          entries
      in
      Alcotest.(check bool) "a promotion was logged" true (promotions <> []);
      List.iter
        (fun d ->
          Alcotest.(check string) "reason" "extrapolated win" d.Log.d_reason;
          Alcotest.(check bool) "had a rate sample" true (d.Log.d_rate > 0.0);
          let target =
            match d.Log.d_action with Log.Promote m -> m | Log.Stay -> assert false
          in
          let cand =
            List.find (fun c -> c.Log.c_mode = target) d.Log.d_candidates
          in
          (* the log must show the win it claims: the chosen candidate's
             projected total beats staying put and every rival *)
          Alcotest.(check bool)
            "candidate beats staying" true
            (cand.Log.c_total_seconds < d.Log.d_stay_seconds);
          List.iter
            (fun c ->
              Alcotest.(check bool) "candidate is argmin" true
                (cand.Log.c_total_seconds <= c.Log.c_total_seconds))
            d.Log.d_candidates)
        promotions;
      Log.clear ();
      Aeq.Engine.close e)

(* ---- Chrome trace export ------------------------------------------ *)

let test_chrome_trace_roundtrip () =
  Control.with_enabled true (fun () ->
      Log.clear ();
      let cost_model = CM.with_speedups CM.off ~unopt:50.0 ~opt:100.0 in
      let e = Aeq.Engine.create ~n_threads:2 ~cost_model () in
      Aeq.Engine.load_tpch e ~scale_factor:0.01;
      let r =
        Aeq.Engine.query e ~mode:Driver.Adaptive ~collect_trace:true
          "select count(*) from lineitem"
      in
      let doc = Aeq_exec.Trace_export.chrome_json ?trace:r.Driver.trace () in
      (match J.parse doc with
      | Error m -> Alcotest.fail ("trace does not parse: " ^ m)
      | Ok j ->
        let events =
          match J.member "traceEvents" j with
          | Some arr -> J.to_list arr
          | None -> []
        in
        Alcotest.(check bool) "has events" true (events <> []);
        let cat ev = Option.bind (J.member "cat" ev) J.to_str in
        let has c = List.exists (fun ev -> cat ev = Some c) events in
        Alcotest.(check bool) "morsel events" true (has "morsel");
        Alcotest.(check bool) "lifecycle spans" true (has "span");
        Alcotest.(check bool) "adaptive decisions" true (has "adaptive");
        Alcotest.(check bool) "compile bursts" true (has "compile");
        (* a decision sits on the lifecycle lane of the domain that
           evaluated it, beside its pipeline's execute span *)
        let num k ev = Option.bind (J.member k ev) J.to_float in
        let lane ev = (num "pid" ev, num "tid" ev) in
        let pipeline ev = Option.bind (J.member "args" ev) (num "pipeline") in
        let named n ev = Option.bind (J.member "name" ev) J.to_str = Some n in
        let executes =
          List.filter (fun ev -> cat ev = Some "span" && named "execute" ev) events
        in
        Alcotest.(check bool)
          "a decision shares its execute span's lane" true
          (List.exists
             (fun d ->
               cat d = Some "adaptive"
               && List.exists
                    (fun x -> lane x = lane d && pipeline x = pipeline d)
                    executes)
             events);
        (* the first decision prices each candidate at the seeds *)
        Alcotest.(check bool)
          "a decision shows the speedup it priced with" true
          (List.exists
             (fun d ->
               cat d = Some "adaptive"
               && Option.bind (J.member "args" d) (num "candidate_optimized_speedup")
                  = Some 100.0)
             events);
        (* timestamps are rebased: all non-negative *)
        List.iter
          (fun ev ->
            match Option.bind (J.member "ts" ev) J.to_float with
            | Some ts -> if ts < -1e-6 then Alcotest.fail "negative timestamp"
            | None -> Alcotest.fail "event without ts")
          events);
      Log.clear ();
      Aeq.Engine.close e)

(* ---- the shared ring: event log and execution trace -------------- *)

(* Push [capacity + 100] events whose start times are a scrambled
   permutation of 0..n-1: the first [capacity] pushed must be the ones
   kept, the other 100 counted as dropped, and the snapshot sorted. *)
let check_ring_bounds what ~push ~starts ~kept ~dropped =
  let n = Ring.capacity + 100 in
  let start i = float_of_int (i * 7919 mod n) in
  for i = 0 to n - 1 do
    push (start i)
  done;
  Alcotest.(check int) (what ^ ": kept") Ring.capacity (kept ());
  Alcotest.(check int) (what ^ ": dropped") 100 (dropped ());
  Alcotest.(check (list (float 0.0)))
    (what ^ ": oldest kept, sorted by start")
    (List.sort compare (List.init Ring.capacity start))
    (starts ())

let test_spans_record_and_drop () =
  Control.with_enabled true (fun () ->
      Log.clear ();
      check_ring_bounds "event log"
        ~push:(fun t -> Log.span "s" ~t0:t ~t1:(t +. 0.5))
        ~starts:(fun () -> List.map (fun (e : Log.event) -> e.t0) (Log.snapshot ()))
        ~kept:(fun () -> List.length (Log.snapshot ()))
        ~dropped:Log.dropped;
      Alcotest.(check bool) "snapshot cached" true (Log.snapshot () == Log.snapshot ());
      Log.clear ())

(* Decisions are stamped at record time, so the push order is carried
   in [d_processed]: the first [capacity] pushed must be the ones kept. *)
let test_decision_log_bounded () =
  Control.with_enabled true (fun () ->
      Log.clear ();
      let n = Ring.capacity + 100 in
      for i = 0 to n - 1 do
        Log.decision ~pipeline:0 { stay_decision with d_processed = i }
      done;
      let evs = Log.snapshot () in
      Alcotest.(check int) "bounded" Ring.capacity (List.length evs);
      Alcotest.(check int) "drops counted" 100 (Log.dropped ());
      Alcotest.(check (list int))
        "oldest kept"
        (List.init Ring.capacity Fun.id)
        (List.sort compare (List.map (fun d -> d.Log.d_processed) (decisions ())));
      let starts = List.map (fun (e : Log.event) -> e.t0) evs in
      Alcotest.(check bool)
        "sorted by start" true
        (starts = List.sort compare starts);
      Log.clear ());
  Control.with_enabled false (fun () ->
      Log.decision ~pipeline:0 stay_decision;
      Alcotest.(check int) "disabled: no entry" 0 (List.length (Log.snapshot ())))

let test_trace_capped_with_dropped_counter () =
  let tr = Trace.create () in
  let epoch = Trace.epoch tr in
  check_ring_bounds "trace"
    ~push:(fun t ->
      Trace.record tr ~pipeline:0 ~tid:0 ~t0:(epoch +. t) ~t1:(epoch +. t +. 0.5)
        (Trace.Ev_morsel CM.Bytecode))
    (* stored relative to the epoch: round away the float error *)
    ~starts:(fun () -> List.map (fun (e : Trace.event) -> Float.round e.t0) (Trace.events tr))
    ~kept:(fun () -> Trace.n_events tr)
    ~dropped:(fun () -> Trace.dropped tr);
  Alcotest.(check bool) "trace events cached" true (Trace.events tr == Trace.events tr)

let test_ring_concurrent_overflow () =
  (* 4 domains push past the capacity at once: exactly [capacity] kept,
     and every other push counted *)
  Control.with_enabled true (fun () ->
      Log.clear ();
      let per_domain = (Ring.capacity / 4) + 5_000 in
      let worker d () =
        for i = 1 to per_domain do
          let t = float_of_int i in
          Log.span ~pipeline:d "hammer" ~t0:t ~t1:t
        done
      in
      let domains = List.init 4 (fun d -> Aeq_race.spawn (worker d)) in
      List.iter Aeq_race.join domains;
      let kept = List.length (Log.snapshot ()) in
      Alcotest.(check int) "kept = capacity" Ring.capacity kept;
      Alcotest.(check int) "kept + dropped = pushed" (4 * per_domain) (kept + Log.dropped ());
      Log.clear ())

(* ---- engine-level reset (satellite c) ----------------------------- *)

let test_engine_reset_stats () =
  Control.with_enabled true (fun () ->
      M.reset ();
      let e = Aeq.Engine.create ~n_threads:2 ~cost_model:CM.off () in
      Aeq.Engine.load_tpch e ~scale_factor:0.002;
      let sql = "select count(*) from region" in
      ignore (Aeq.Engine.query e sql);
      ignore (Aeq.Engine.query e sql);
      let count_queries () =
        List.fold_left
          (fun acc s ->
            match (s.M.s_name, s.M.s_value) with
            | "aeq_queries_total", M.Counter v -> acc + v
            | _ -> acc)
          0
          (Aeq.Engine.metrics ())
      in
      Alcotest.(check int) "queries counted" 2 (count_queries ());
      Alcotest.(check int) "cache hit counted" 1 (Aeq.Engine.cache_stats e).Aeq.Engine.hits;
      Alcotest.(check bool) "spans logged" true (span_names () <> []);
      for _ = 0 to Ring.capacity do
        Log.span "fill" ~t0:0.0 ~t1:0.0
      done;
      Alcotest.(check bool) "log overflowed" true (Log.dropped () > 0);
      Aeq.Engine.reset_stats e;
      Alcotest.(check int) "log emptied" 0 (List.length (Log.snapshot ()));
      Alcotest.(check int) "log drops zeroed" 0 (Log.dropped ());
      Alcotest.(check int) "query counter zeroed" 0 (count_queries ());
      let cs = Aeq.Engine.cache_stats e in
      Alcotest.(check int) "cache hits zeroed" 0 cs.Aeq.Engine.hits;
      Alcotest.(check int) "cache misses zeroed" 0 cs.Aeq.Engine.misses;
      (* the cache itself survives the reset: re-running is still a hit *)
      ignore (Aeq.Engine.query e sql);
      Alcotest.(check int) "entry survived reset" 1 (Aeq.Engine.cache_stats e).Aeq.Engine.hits;
      Aeq.Engine.close e)

(* a malformed query is counted under its own error class *)
let test_engine_counts_front_end_errors () =
  Control.with_enabled true (fun () ->
      M.reset ();
      let e = Aeq.Engine.create ~n_threads:1 ~cost_model:CM.off () in
      Aeq.Engine.load_tpch e ~scale_factor:0.001;
      let errors cls =
        List.fold_left
          (fun acc s ->
            match (s.M.s_name, s.M.s_value) with
            | "aeq_query_errors_total", M.Counter v
              when List.assoc_opt "error" s.M.s_labels = Some cls ->
              acc + v
            | _ -> acc)
          0
          (Aeq.Engine.metrics ())
      in
      let fails sql =
        match Aeq.Engine.query e sql with
        | _ -> Alcotest.failf "%S must fail" sql
        | exception Aeq_exec.Query_error.Error _ -> ()
      in
      fails "select broken syntax from";
      fails "select count(*) from no_such_table";
      Alcotest.(check int) "parse_failed counted" 1 (errors "parse_failed");
      Alcotest.(check int) "plan_failed counted" 1 (errors "plan_failed");
      Aeq.Engine.close e)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_parse_rejects_garbage;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escape;
          Alcotest.test_case "rejects non-finite" `Quick test_json_rejects_nonfinite;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter/gauge/histogram" `Quick test_counter_gauge_histogram;
          Alcotest.test_case "prometheus golden" `Quick test_prometheus_exposition_golden;
          Alcotest.test_case "multi-domain hammer" `Quick test_metrics_multi_domain_hammer;
          Alcotest.test_case "reset" `Quick test_metrics_reset;
        ] );
      ( "spans",
        [
          Alcotest.test_case "record and drop" `Quick test_spans_record_and_drop;
          Alcotest.test_case "disabled no-op" `Quick test_spans_disabled_noop;
          Alcotest.test_case "records on raise" `Quick test_spans_record_on_raise;
        ] );
      ( "decision-log",
        [
          Alcotest.test_case "bounded" `Quick test_decision_log_bounded;
          Alcotest.test_case "evaluate shows its working" `Quick
            test_evaluate_shows_its_working;
          Alcotest.test_case "records promotion" `Quick test_decision_log_records_promotion;
        ] );
      ( "chrome-trace",
        [ Alcotest.test_case "roundtrip" `Quick test_chrome_trace_roundtrip ] );
      ( "trace-bounds",
        [
          Alcotest.test_case "capped with dropped counter" `Quick
            test_trace_capped_with_dropped_counter;
        ] );
      ( "event-ring",
        [ Alcotest.test_case "concurrent overflow" `Quick test_ring_concurrent_overflow ] );
      ( "engine",
        [
          Alcotest.test_case "reset_stats" `Quick test_engine_reset_stats;
          Alcotest.test_case "front-end error classes" `Quick
            test_engine_counts_front_end_errors;
        ] );
    ]
