(* Timing, statistics and process probes shared by every workload. *)

module Stats = Aeq_util.Stats

let now = Unix.gettimeofday

let ms s = s *. 1000.0

let median = Stats.median

let percentile = Stats.percentile

let percentile_ms q xs = ms (percentile q xs)

let geomean = Stats.geomean

(* The first result of [f] and its seconds per call. Calls are batched
   until a batch lasts 2 ms, so microsecond-scale calls are not lost in
   clock resolution; the time is the median of three batches, or the
   single call when one call already takes longer than 20 ms. *)
let per_call f =
  let t0 = now () in
  let result = f () in
  let batch ~t0 ~n =
    let n = ref n and elapsed = ref (now () -. t0) in
    while !elapsed < 0.002 do
      ignore (f ());
      incr n;
      elapsed := now () -. t0
    done;
    !elapsed /. float_of_int !n
  in
  let first = batch ~t0 ~n:1 in
  if first > 0.02 then (result, first)
  else (result, median [ first; batch ~t0:(now ()) ~n:0; batch ~t0:(now ()) ~n:0 ])

(* Least-squares slope of log y against log x: 1 means time grows
   linearly with size, 2 quadratically. *)
let growth_exponent pts =
  let pts = List.filter (fun (x, y) -> x > 0.0 && y > 0.0) pts in
  snd (Stats.linear_fit (List.map (fun (x, y) -> (log x, log y)) pts))

let ratio num den = if den = 0.0 then 0.0 else num /. den

(* Peak resident set ([VmHWM]) of a process, in MB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "peak_rss_mb: no VmHWM line"
      in
      scan ())

(* [contents] to [path], creating its directory if needed. *)
let write_file path contents =
  let rec mkdir_p dir =
    if not (Sys.file_exists dir) then begin
      mkdir_p (Filename.dirname dir);
      Sys.mkdir dir 0o755
    end
  in
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

(* A result as a sorted bag of rendered rows: order-insensitive, so
   morsel scheduling cannot fail a correct answer, and the same for
   in-process and wire results. *)
let answer_digest (rows : string list list) =
  Digest.string (Marshal.to_string (List.sort compare rows) [])

(* Every answer a child receives, by statement text and digest, with
   its count. The run checks them against Volcano once all children
   are done, so no child spends its time computing reference answers. *)
let answers : (string * Digest.t, int) Hashtbl.t = Hashtbl.create 256

let answers_lock = Mutex.create ()

(* Wire children record from several threads, hence the lock. [perturb]
   is the deliberate corruption of the test that checks wrong answers
   are counted. *)
let record_answer ~perturb sql rows =
  let rows = if perturb then [ "perturbed" ] :: rows else rows in
  let key = (sql, answer_digest rows) in
  Mutex.protect answers_lock (fun () ->
      Hashtbl.replace answers key (1 + Option.value ~default:0 (Hashtbl.find_opt answers key)))

(* What one child process hands back to the run that spawned it. The
   run pools [samples] over its children for the latency percentiles,
   and takes the median of the children's [metrics]. A request that
   fails is a sample too, at [failed_latency]: it misses every latency
   limit, so failures raise the percentiles instead of leaving them. *)
type outcome = {
  inputs : Digest.t;  (** [Inputs.digest] of what the child drew *)
  metrics : (string * float) list;
  samples : (string * float) list;  (** statement key, latency seconds *)
  attempted : int;
  errors : int;  (** requests that raised or got an error reply *)
  answers : ((string * Digest.t) * int) list;
  spans : Spans.t list;  (** empty unless traced *)
}

let outcome ?(samples = []) ~inputs ~metrics ~attempted ~errors ~spans () =
  { inputs; metrics; samples; attempted; errors; answers = List.of_seq (Hashtbl.to_seq answers); spans }

(* The latency a failed request is recorded at: the whole of the
   child's time, longer than any request that succeeds. *)
let failed_latency ~seconds = seconds

type gc_counts = { minor_words : float; minor_collections : int; major_collections : int }

let gc_counts () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
  }

let gc_delta a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    minor_collections = b.minor_collections - a.minor_collections;
    major_collections = b.major_collections - a.major_collections;
  }
