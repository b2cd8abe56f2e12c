module CT = Aeq_obs.Chrome_trace
module Json = Aeq_obs.Json
module Log = Aeq_obs.Event_log
module CM = Aeq_backend.Cost_model

let us = 1e6

(* pid 0: worker lanes (morsels, compile bursts);
   pid 1: lifecycle lanes (spans and decisions), one per recording domain *)
let workers_pid = 0

let lifecycle_pid = 1

let finite_or_string x =
  if Float.abs x = Float.infinity then Json.Str "inf"
  else if Float.is_nan x then Json.Str "nan"
  else Json.Num x

let pipeline_arg p = ("pipeline", Json.Num (float_of_int p))

let chrome_events ?trace () =
  let logged = Log.snapshot () in
  let trace_events = match trace with Some tr -> Trace.events tr | None -> [] in
  let trace_epoch = match trace with Some tr -> Trace.epoch tr | None -> 0.0 in
  (* one shared epoch: earliest absolute timestamp of either source *)
  let epoch =
    List.fold_left
      (fun acc (e : Log.event) -> Stdlib.min acc e.t0)
      (List.fold_left
         (fun acc (e : Trace.event) -> Stdlib.min acc (trace_epoch +. e.t0))
         infinity trace_events)
      logged
  in
  let epoch = if epoch = infinity then 0.0 else epoch in
  let rel t = (t -. epoch) *. us in
  let exec_events =
    List.map
      (fun (e : Trace.event) ->
        let abs0 = trace_epoch +. e.t0 and abs1 = trace_epoch +. e.t1 in
        let args mode = [ pipeline_arg e.pipeline; ("mode", Json.Str (CM.mode_name mode)) ] in
        let slice cat name m =
          CT.complete ~name ~cat ~pid:workers_pid ~tid:e.tid ~ts_us:(rel abs0)
            ~dur_us:((abs1 -. abs0) *. us) ~args:(args m) ()
        in
        match e.kind with
        | Trace.Ev_morsel m -> slice "morsel" ("morsel " ^ CM.mode_name m) m
        | Trace.Ev_compile m -> slice "compile" ("compile " ^ CM.mode_name m) m
        | Trace.Ev_compile_failed m ->
          CT.instant
            ~name:("compile failed " ^ CM.mode_name m)
            ~cat:"compile" ~pid:workers_pid ~tid:e.tid ~ts_us:(rel abs0) ~args:(args m) ())
      trace_events
  in
  let log_event (e : Log.event) =
    match e.kind with
    | Log.Span name ->
      let args = if e.pipeline >= 0 then [ pipeline_arg e.pipeline ] else [] in
      CT.complete ~name ~cat:"span" ~pid:lifecycle_pid ~tid:e.domain ~ts_us:(rel e.t0)
        ~dur_us:((e.t1 -. e.t0) *. us) ~args ()
    | Log.Decision d ->
      let action =
        match d.d_action with Log.Stay -> "stay" | Log.Promote m -> "promote " ^ m
      in
      let args =
        [
          pipeline_arg e.pipeline;
          ("mode", Json.Str d.d_mode);
          ("processed", Json.Num (float_of_int d.d_processed));
          ("remaining", Json.Num (float_of_int d.d_remaining));
          ("rate_tuples_per_s", Json.Num d.d_rate);
          ("stay_seconds", finite_or_string d.d_stay_seconds);
          ("action", Json.Str action);
          ("reason", Json.Str d.d_reason);
        ]
        @ List.concat_map
            (fun (c : Log.candidate) ->
              [
                ( "candidate_" ^ c.c_mode ^ "_seconds",
                  if c.c_blacklisted then Json.Str "blacklisted"
                  else finite_or_string c.c_total_seconds );
                ("candidate_" ^ c.c_mode ^ "_speedup", Json.Num c.c_speedup);
              ])
            d.d_candidates
      in
      CT.instant
        ~name:("decision " ^ action)
        ~cat:"adaptive" ~pid:lifecycle_pid ~tid:e.domain ~ts_us:(rel e.t0) ~args ()
  in
  let tids = List.sort_uniq compare (List.map (fun (e : Trace.event) -> e.tid) trace_events) in
  let domains = List.sort_uniq compare (List.map (fun (e : Log.event) -> e.domain) logged) in
  (CT.process_name ~pid:workers_pid "workers"
   :: CT.process_name ~pid:lifecycle_pid "lifecycle"
   :: List.map
        (fun tid -> CT.thread_name ~pid:workers_pid ~tid (Printf.sprintf "worker %d" tid))
        tids)
  @ List.map
      (fun d -> CT.thread_name ~pid:lifecycle_pid ~tid:d (Printf.sprintf "domain %d" d))
      domains
  @ exec_events @ List.map log_event logged

let chrome_json ?trace () = CT.render (chrome_events ?trace ())

let write_file ?trace path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chrome_json ?trace ()))
