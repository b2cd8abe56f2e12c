(* wire_meta: the real serving path. An aeq_server child process serves
   the TPC-H catalog; this process drives it open-loop over
   [Spec.wire_connections] wire connections at the fixed rates of
   [Spec.wire_rates]. Every request is timed from its scheduled send
   instant, so a stall also delays the requests queued behind it. *)

module Client = Aeq_net.Client
module Driver = Aeq_exec.Driver
module Engine = Aeq.Engine
module Trace = Aeq_exec.Trace
module M = Measure

(* ---- the server process ------------------------------------------------ *)

type server = { pid : int; port : int; out : in_channel }

(* The aeq_server binary of the same build: _build/default/bin next to
   _build/default/perfbench. *)
let server_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "aeq_server.exe")

let ready_marker = "serving on 127.0.0.1:"

(* The port in the server's ready line. *)
let port_of line =
  let n = String.length ready_marker and len = String.length line in
  let rec go i =
    if i + n > len then None
    else if String.sub line i n = ready_marker then
      Scanf.sscanf (String.sub line (i + n) (len - i - n)) "%d" Option.some
    else go (i + 1)
  in
  go 0

(* Spawn the server and wait for its ready line; the elapsed time is
   one set-up. *)
let start () =
  let exe = server_exe () in
  let t0 = M.now () in
  let r, w = Unix.pipe ~cloexec:true () in
  let args =
    [| exe; "--sf"; Printf.sprintf "%g" (Spec.scale_factor Spec.Wire_meta); "--threads";
       string_of_int Spec.n_threads; "--port"; "0" |]
  in
  let pid = Unix.create_process exe args Unix.stdin w Unix.stderr in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  let fail msg =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    close_in out;
    failwith msg
  in
  match input_line out with
  | exception End_of_file -> fail "aeq_server exited before serving"
  | line -> (
    let setup = M.now () -. t0 in
    match port_of line with
    | Some port -> ({ pid; port; out }, setup)
    | None -> fail ("unexpected aeq_server output: " ^ line))

(* SIGTERM drains and exits the server; its peak RSS is read first. *)
let stop s =
  let rss = M.peak_rss_mb (string_of_int s.pid) in
  Unix.kill s.pid Sys.sigterm;
  (try
     while true do
       ignore (input_line s.out)
     done
   with End_of_file -> ());
  close_in s.out;
  ignore (Unix.waitpid [] s.pid);
  rss

(* [f] against a fresh server, which is always stopped again, and then
   the rest of [Spec.setups] servers, each stopped at once; returns
   [f]'s result, the median set-up time and the first server's peak
   RSS. *)
let with_server f =
  let s, first = start () in
  let result = match f s with v -> v | exception e -> ignore (stop s); raise e in
  let rss = stop s in
  let more =
    List.init (Spec.setups - 1) (fun _ ->
        let s, setup = start () in
        ignore (stop s);
        setup)
  in
  (result, M.median (first :: more), rss)

(* ---- the open-loop generator ------------------------------------------- *)

type record = {
  req : Inputs.request;
  due : float;  (** scheduled send instant *)
  sent : float;
  fin : float;  (** reply received *)
  exec : float;  (** server-reported execution seconds *)
  error : string option;  (** the error reply, if any *)
}

let latency r = r.fin -. r.due

type phase = {
  offered : float;  (** q/s *)
  duration : float;  (** seconds the schedule spans *)
  records : record list;
  unsent : Inputs.request list;  (** scheduled but never sent: every connection died *)
  achieved : float;  (** answered q/s over first arrival to last reply *)
}

let connect ~port =
  match Client.connect ~client:"perfbench" ~port () with
  | Ok c -> c
  | Error e -> failwith ("wire connect: " ^ Client.error_to_string e)

(* Each connection's thread takes the next arrival, sleeps until it is
   due, sends it and waits for the reply, so a slow reply makes later
   arrivals late and that lateness is part of their latency. *)
let run_phase ~port ~perturb ~rate ~duration (schedule : Inputs.arrival array) =
  let clients = Array.init Spec.wire_connections (fun _ -> connect ~port) in
  let n = Array.length schedule in
  let slots = Array.make n None in
  let cursor = Atomic.make 0 in
  let start = M.now () +. 0.002 in
  let last = Array.make Spec.wire_connections start in
  let worker k () =
    let c = clients.(k) in
    let rec loop () =
      let i = Atomic.fetch_and_add cursor 1 in
      if i < n then begin
        let a = schedule.(i) in
        let due = start +. a.Inputs.at in
        let now = M.now () in
        if due > now then Thread.delay (due -. now);
        let sent = M.now () in
        let outcome = Client.execute c a.Inputs.req.Inputs.sql in
        let fin = M.now () in
        last.(k) <- fin;
        let sql = a.Inputs.req.Inputs.sql in
        let exec, error =
          match outcome with
          | Ok rows ->
            M.record_answer ~perturb sql rows.Client.rows;
            (rows.Client.exec_seconds, None)
          | Error e -> (0.0, Some (Client.error_to_string e))
        in
        slots.(i) <- Some { req = a.Inputs.req; due; sent; fin; exec; error };
        match outcome with
        | Error (Client.Transport _) -> () (* the session is gone *)
        | _ -> loop ()
      end
    in
    loop ()
  in
  let threads = Array.init Spec.wire_connections (fun k -> Thread.create (worker k) ()) in
  Array.iter Thread.join threads;
  Array.iter Client.close clients;
  let records = List.filter_map Fun.id (Array.to_list slots) in
  let answered = List.length (List.filter (fun r -> r.error = None) records) in
  {
    offered = rate;
    duration;
    records;
    unsent =
      List.filter_map
        (fun (a, slot) -> if slot = None then Some a.Inputs.req else None)
        (List.combine (Array.to_list schedule) (Array.to_list slots));
    achieved = float_of_int answered /. (Array.fold_left Float.max start last -. start);
  }

(* Closed-loop capacity: each connection sends its next request as soon
   as the previous reply arrives. Returns answered requests per second,
   requests sent and error replies. *)
let capacity ~port ~perturb ~seconds (reqs : Inputs.request array) =
  let clients = Array.init Spec.wire_connections (fun _ -> connect ~port) in
  let cursor = Atomic.make 0 and answered = Atomic.make 0 and errors = Atomic.make 0 in
  let t0 = M.now () in
  let worker c () =
    let rec loop () =
      if M.now () -. t0 < seconds then begin
        let r = reqs.(Atomic.fetch_and_add cursor 1 mod Array.length reqs) in
        match Client.execute c r.Inputs.sql with
        | Ok rows ->
          M.record_answer ~perturb r.Inputs.sql rows.Client.rows;
          Atomic.incr answered;
          loop ()
        | Error (Client.Transport _) -> Atomic.incr errors
        | Error (Client.Wire _) ->
          Atomic.incr errors;
          loop ()
      end
    in
    loop ()
  in
  let threads = Array.map (fun c -> Thread.create (worker c) ()) clients in
  Array.iter Thread.join threads;
  let elapsed = M.now () -. t0 in
  Array.iter Client.close clients;
  let answered = Atomic.get answered and errors = Atomic.get errors in
  (float_of_int answered /. elapsed, answered + errors, errors)

(* ---- correctness and verdicts ------------------------------------------ *)

(* Error replies and unsent requests fail here; wrong answers are
   counted by the run once every child is done. *)
let bad r = r.error <> None

let failed ph = List.length ph.unsent + List.length (List.filter bad ph.records)

let total ph = List.length ph.records + List.length ph.unsent

(* Every scheduled request's latency; a failed or unsent one lasts the
   whole phase, so it misses every limit. *)
let samples ph =
  let penalty = M.failed_latency ~seconds:ph.duration in
  List.map (fun r -> (r.req.Inputs.key, if bad r then penalty else latency r)) ph.records
  @ List.map (fun (q : Inputs.request) -> (q.Inputs.key, penalty)) ph.unsent

(* A rate is met when p99 stays within the limit, the achieved rate
   keeps up, and almost nothing fails. *)
let meets ph =
  M.percentile_ms 0.99 (List.map snd (samples ph)) <= Spec.latency_limit_ms
  && ph.achieved >= Spec.min_achieved_share *. ph.offered
  && float_of_int (failed ph) <= Spec.max_failed_share *. float_of_int (total ph)

let report ph =
  let lat = List.map snd (samples ph) in
  Printf.eprintf
    "  rate %.0f q/s: achieved %.1f, p50 %.2f ms, p99 %.2f ms, generator lateness p99 \
     %.2f ms, %d failed of %d%s\n%!"
    ph.offered ph.achieved (M.percentile_ms 0.5 lat) (M.percentile_ms 0.99 lat)
    (M.percentile_ms 0.99 (List.map (fun r -> r.sent -. r.due) ph.records))
    (failed ph) (total ph)
    (if meets ph then "" else "  (misses the limit)")

(* ---- the child process ------------------------------------------------- *)

let warm_up s =
  let c = connect ~port:s.port in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      for _ = 1 to Spec.warmup_passes do
        List.iter (fun (r : Inputs.request) -> ignore (Client.execute c r.Inputs.sql)) Inputs.meta
      done)

(* The generator knows when a request was due, sent and answered; the
   server adds how long it executed. *)
let spans_of_record id r =
  let s name parent t0 t1 = { Spans.request = id; name; parent; t0; t1 } in
  [
    s "request" "" r.due r.fin;
    s "loadgen.lateness" "request" r.due r.sent;
    s "net.roundtrip" "request" r.sent r.fin;
    s "execute" "net.roundtrip" (r.fin -. r.exec) r.fin;
  ]

let phase s ~perturb ~seconds ~schedules i =
  let rate = Spec.wire_rates.(i) and duration = Spec.wire_time_shares.(i) *. seconds in
  run_phase ~port:s.port ~perturb ~rate ~duration schedules.(i)

(* One server: its closed-loop capacity, then the three fixed rates. *)
let untraced ~seconds ~perturb ~digest ~capacity:reqs ~schedules =
  let ((cap, cap_sent, cap_errors), phases), setup, rss =
    with_server (fun s ->
        warm_up s;
        let cap = capacity ~port:s.port ~perturb ~seconds:(Spec.wire_capacity_share *. seconds) reqs in
        (cap, List.init (Array.length Spec.wire_rates) (phase s ~perturb ~seconds ~schedules)))
  in
  List.iter report phases;
  Printf.eprintf "  closed-loop capacity over %d connections: %.1f q/s\n%!" Spec.wire_connections cap;
  M.outcome ~inputs:digest
    ~samples:(samples (List.nth phases Spec.wire_middle))
    ~metrics:[ ("setup_s", setup); ("throughput_qps", cap); ("peak_rss_mb", rss) ]
    ~attempted:(cap_sent + List.fold_left (fun acc ph -> acc + total ph) 0 phases)
    ~errors:(cap_errors + List.fold_left (fun acc ph -> acc + failed ph) 0 phases)
    ~spans:[] ()

(* The middle rate against one server; its records give the spans, so
   tracing adds nothing to the requests (trace.overhead_ratio reads 0).
   What the server's clients cannot see — the layer probes, the
   allocation, the plan-cache counters and the controller's compiles of
   the same mix — is measured on a bench-side engine over the same
   data, replaying the capacity phase's requests. *)
let traced ~seconds ~perturb ~digest ~capacity:reqs ~schedules ~stmts =
  let middle, _, _ =
    with_server (fun s ->
        warm_up s;
        phase s ~perturb ~seconds ~schedules Spec.wire_middle)
  in
  report middle;
  let spans = List.concat (List.mapi spans_of_record middle.records) in
  let good = List.filter (fun r -> not (bad r)) middle.records in
  let engine = Engine.create ~n_threads:Spec.n_threads () in
  Fun.protect ~finally:(fun () -> Engine.close engine) @@ fun () ->
  Engine.load_tpch engine ~scale_factor:(Spec.scale_factor Spec.Wire_meta);
  let catalog = Engine.catalog engine in
  let g0 = M.gc_counts () and c0 = Engine.cache_stats engine in
  let promotions = ref 0 and replayed = ref 0 and replay_errors = ref 0 in
  let t0 = M.now () in
  while M.now () -. t0 < 0.05 *. seconds do
    let r = reqs.(!replayed mod Array.length reqs) in
    incr replayed;
    match Engine.query engine ~collect_trace:true r.Inputs.sql with
    | res ->
      M.record_answer ~perturb r.Inputs.sql
        (List.map (Driver.row_to_strings catalog res.Driver.dtypes) res.Driver.rows);
      Option.iter
        (fun tr ->
          List.iter
            (fun (ev : Trace.event) ->
              match ev.Trace.kind with Trace.Ev_compile _ -> incr promotions | _ -> ())
            (Trace.events tr))
        res.Driver.trace
    | exception e ->
      incr replay_errors;
      Printf.eprintf "%s failed: %s\n%!" r.Inputs.key (Printexc.to_string e)
  done;
  let gc = M.gc_delta g0 (M.gc_counts ()) and c1 = Engine.cache_stats engine in
  let hits = float_of_int (c1.Engine.hits - c0.Engine.hits) in
  let misses = float_of_int (c1.Engine.misses - c0.Engine.misses) in
  M.outcome ~inputs:digest
    ~metrics:
      (Layers.per_layer engine stmts ~seconds
         ~plain:(List.map (fun r -> (latency r, r.exec)) good)
         ~traced:(List.map latency good) ~gc ~queries:!replayed
         ~promotions:(float_of_int !promotions /. float_of_int (max 1 !replayed))
         ~hit_ratio:(M.ratio hits (hits +. misses))
         spans)
    ~attempted:(total middle + !replayed) ~errors:(failed middle + !replay_errors) ~spans ()

let run (inputs : Inputs.t) ~seconds ~trace ~perturb =
  match inputs with
  | Inputs.Open { capacity; schedules; distinct } ->
    let digest = Inputs.digest inputs in
    if trace then traced ~seconds ~perturb ~digest ~capacity ~schedules ~stmts:distinct
    else untraced ~seconds ~perturb ~digest ~capacity ~schedules
  | Inputs.Closed _ -> invalid_arg "Wire.run: only wire_meta is open-loop"
