type config = {
  host : string;
  port : int;
  rate : float;
  duration_seconds : float;
  connections : int;
  seed : int64;
  statements : string list;
  use_prepared : bool;
  priority : Aeq_exec.Scheduler.priority;
  deadline_seconds : float option;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7878;
    rate = 50.0;
    duration_seconds = 5.0;
    connections = 8;
    seed = 42L;
    statements = [ "select count(*) from lineitem" ];
    use_prepared = false;
    priority = Aeq_exec.Scheduler.Normal;
    deadline_seconds = None;
  }

type summary = {
  offered : int;
  attempted : int;
  completed : int;
  failed : (string * int) list;
  connect_errors : int;
  offered_rate : float;
  achieved_rate : float;
  wall_seconds : float;
  mean_seconds : float;
  max_seconds : float;
  p50_seconds : float;
  p95_seconds : float;
  p99_seconds : float;
}

(* ---- log-bucketed latency histogram ----------------------------------- *)
(* bucket k holds latencies in (ub(k-1), ub(k)], ub(k) = 1µs × 2^k;
   the last bucket is the overflow *)

let n_buckets = 64

let bucket_ub k = 1e-6 *. Float.of_int (1 lsl min k 62)

let bucket_of lat =
  let rec find k = if k >= n_buckets - 1 || lat <= bucket_ub k then k else find (k + 1) in
  find 0

type worker_stats = {
  hist : int array;
  mutable sum : float;
  mutable count : int;
  mutable max : float;
  errors : (string, int) Hashtbl.t;
  mutable w_attempted : int;
  mutable w_completed : int;
  mutable last_finish : float;
}

let new_stats () =
  {
    hist = Array.make n_buckets 0;
    sum = 0.0;
    count = 0;
    max = 0.0;
    errors = Hashtbl.create 8;
    w_attempted = 0;
    w_completed = 0;
    last_finish = 0.0;
  }

let record_latency w lat =
  let k = bucket_of lat in
  w.hist.(k) <- w.hist.(k) + 1;
  w.sum <- w.sum +. lat;
  w.count <- w.count + 1;
  if lat > w.max then w.max <- lat

let record_error w label =
  Hashtbl.replace w.errors label
    (1 + Option.value ~default:0 (Hashtbl.find_opt w.errors label))

let error_label = function
  | Client.Transport _ -> "transport"
  | Client.Wire (Protocol.Protocol_violation _) -> "protocol_violation"
  | Client.Wire (Protocol.Query e) -> Aeq_exec.Query_error.label e

(* percentile with geometric interpolation inside the winning bucket *)
let percentile hist count q =
  if count = 0 then 0.0
  else begin
    let target = q *. Float.of_int count in
    let rec walk k cum =
      if k >= n_buckets then bucket_ub (n_buckets - 1)
      else begin
        let c = hist.(k) in
        if Float.of_int (cum + c) >= target && c > 0 then begin
          let lo = if k = 0 then bucket_ub 0 /. 2.0 else bucket_ub (k - 1) in
          let frac = (target -. Float.of_int cum) /. Float.of_int c in
          lo *. (2.0 ** frac)
        end
        else walk (k + 1) (cum + c)
      end
    in
    walk 0 0
  end

(* ---- the run ----------------------------------------------------------- *)

let build_schedule ~rate ~duration ~seed =
  let rng = Aeq_util.Prng.create seed in
  let acc = ref [] in
  let t = ref 0.0 in
  let n = ref 0 in
  let cap = 2_000_000 in
  let continue = ref true in
  while !continue do
    let u = Aeq_util.Prng.float rng 1.0 in
    let gap = -.Float.log (1.0 -. u) /. rate in
    t := !t +. gap;
    if !t > duration || !n >= cap then continue := false
    else begin
      acc := !t :: !acc;
      incr n
    end
  done;
  Array.of_list (List.rev !acc)

let worker cfg ~schedule ~start ~stop_after ~cursor ~stmts w =
  match
    Client.connect ~host:cfg.host ~client:"aeq-load" ~priority:cfg.priority
      ?deadline_seconds:cfg.deadline_seconds ~port:cfg.port ()
  with
  | Error e ->
    record_error w ("connect:" ^ error_label e);
    w.last_finish <- Aeq_util.Clock.now ()
  | Ok c ->
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    let prepared =
      if not cfg.use_prepared then [||]
      else
        Array.map
          (fun sql ->
            match Client.prepare c sql with
            | Ok (id, _) -> Some id
            | Error e ->
              record_error w ("prepare:" ^ error_label e);
              None)
          stmts
    in
    let n = Array.length schedule in
    let n_stmts = Array.length stmts in
    let rec loop () =
      let i = Atomic.fetch_and_add cursor 1 in
      if i < n && Aeq_util.Clock.now () < stop_after then begin
        let at = start +. schedule.(i) in
        let now = Aeq_util.Clock.now () in
        if at > now then Thread.delay (at -. now);
        w.w_attempted <- w.w_attempted + 1;
        let si = i mod n_stmts in
        let outcome =
          if cfg.use_prepared then
            match prepared.(si) with
            | Some id -> Client.execute_prepared c id
            | None -> Client.execute c stmts.(si)
          else Client.execute c stmts.(si)
        in
        let fin = Aeq_util.Clock.now () in
        w.last_finish <- fin;
        (match outcome with
        | Ok _ ->
          w.w_completed <- w.w_completed + 1;
          (* from the scheduled arrival, not the send: queueing delay
             behind a slow server is part of the latency *)
          record_latency w (fin -. at)
        | Error e ->
          record_error w (error_label e);
          (* a transport failure means the session is gone *)
          match e with Client.Transport _ -> raise Exit | Client.Wire _ -> ());
        loop ()
      end
    in
    (try loop () with Exit -> ())

let run cfg =
  if cfg.rate <= 0.0 then invalid_arg "Loadgen.run: rate must be positive";
  if cfg.duration_seconds <= 0.0 then
    invalid_arg "Loadgen.run: duration must be positive";
  if cfg.connections <= 0 then
    invalid_arg "Loadgen.run: connections must be positive";
  if cfg.statements = [] then invalid_arg "Loadgen.run: no statements";
  (* a server that closes a session mid-write (a drain, a crash) must
     surface as a transport error on that worker, not kill the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let schedule =
    build_schedule ~rate:cfg.rate ~duration:cfg.duration_seconds ~seed:cfg.seed
  in
  let stmts = Array.of_list cfg.statements in
  let cursor = Atomic.make 0 in
  let start = Aeq_util.Clock.now () in
  let stop_after = start +. (2.0 *. cfg.duration_seconds) +. 5.0 in
  let stats = Array.init cfg.connections (fun _ -> new_stats ()) in
  let threads =
    Array.mapi
      (fun i w ->
        Thread.create
          (fun () -> worker cfg ~schedule ~start ~stop_after ~cursor ~stmts w)
          () |> fun th -> (i, th))
      stats
  in
  Array.iter (fun (_, th) -> Thread.join th) threads;
  (* merge *)
  let hist = Array.make n_buckets 0 in
  let sum = ref 0.0 and count = ref 0 and maxl = ref 0.0 in
  let attempted = ref 0 and completed = ref 0 and last = ref start in
  let errors : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let connect_errors = ref 0 in
  Array.iter
    (fun w ->
      Array.iteri (fun k c -> hist.(k) <- hist.(k) + c) w.hist;
      sum := !sum +. w.sum;
      count := !count + w.count;
      if w.max > !maxl then maxl := w.max;
      attempted := !attempted + w.w_attempted;
      completed := !completed + w.w_completed;
      if w.last_finish > !last then last := w.last_finish;
      Hashtbl.iter
        (fun label c ->
          if String.length label > 8 && String.sub label 0 8 = "connect:" then
            incr connect_errors
          else
            Hashtbl.replace errors label
              (c + Option.value ~default:0 (Hashtbl.find_opt errors label)))
        w.errors)
    stats;
  let failed =
    Hashtbl.fold (fun l c acc -> (l, c) :: acc) errors []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  let wall = Float.max (!last -. start) 1e-9 in
  let offered = Array.length schedule in
  {
    offered;
    attempted = !attempted;
    completed = !completed;
    failed;
    connect_errors = !connect_errors;
    offered_rate = Float.of_int offered /. cfg.duration_seconds;
    achieved_rate = Float.of_int !completed /. wall;
    wall_seconds = wall;
    mean_seconds = (if !count = 0 then 0.0 else !sum /. Float.of_int !count);
    max_seconds = !maxl;
    (* bucket interpolation can overshoot the largest sample; clamp so the
       reported tail never exceeds the observed maximum *)
    p50_seconds = Float.min !maxl (percentile hist !count 0.50);
    p95_seconds = Float.min !maxl (percentile hist !count 0.95);
    p99_seconds = Float.min !maxl (percentile hist !count 0.99);
  }

let summary_to_json ?(extra = []) s =
  let module J = Aeq_obs.Json in
  let int n = J.Num (Float.of_int n) in
  J.Obj
    ([
       ("loop", J.Str "open");
       ("offered", int s.offered);
       ("attempted", int s.attempted);
       ("completed", int s.completed);
       ("connect_errors", int s.connect_errors);
       ("offered_rate_qps", J.Num s.offered_rate);
       ("achieved_rate_qps", J.Num s.achieved_rate);
       ("wall_seconds", J.Num s.wall_seconds);
       ("mean_seconds", J.Num s.mean_seconds);
       ("max_seconds", J.Num s.max_seconds);
       ("p50_seconds", J.Num s.p50_seconds);
       ("p95_seconds", J.Num s.p95_seconds);
       ("p99_seconds", J.Num s.p99_seconds);
       ("errors", J.Obj (List.map (fun (l, c) -> (l, int c)) s.failed));
     ]
    @ extra)
