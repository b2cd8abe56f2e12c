(* Spans the benchmark records around its own calls into each layer.
   Nothing inside the program is instrumented: a span is either timed
   by the benchmark or taken from the phase durations the driver
   already returns. Spans stay in memory and are written once, as a
   Chrome trace, when the run ends. *)

type t = {
  request : int;  (** bench-assigned request id *)
  name : string;
  parent : string;  (** "" for the request span itself *)
  t0 : float;
  t1 : float;
}

let dur s = s.t1 -. s.t0

let total name spans =
  List.fold_left (fun acc s -> if s.name = name then acc +. dur s else acc) 0.0 spans

(* Request time no direct child of the request covers, summed over
   requests: time the benchmark's spans fail to account for. *)
let unattributed spans =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent = "request" then
        Hashtbl.replace covered s.request
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt covered s.request)))
    spans;
  List.fold_left
    (fun acc s ->
      if s.name = "request" then
        acc +. Float.max 0.0 (dur s -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.request))
      else acc)
    0.0 spans

(* The share of request time each layer's spans take, and the share no
   direct child of the request covers. Layers a workload's client cannot
   see (the server's front end, over the wire) have no spans: share 0. *)
let shares spans =
  let requests = total "request" spans in
  let share x = if requests = 0.0 then 0.0 else x /. requests in
  ("trace.unattributed_ratio", share (unattributed spans))
  :: List.map
       (fun (metric, name) -> (metric, share (total name spans)))
       [
         ("share.parse", "sql.parse");
         ("share.plan", "plan.plan");
         ("share.codegen", "codegen");
         ("share.translate", "translate");
         ("share.compile_real", "compile.real");
         ("share.compile_pad", "compile.pad");
         ("share.driver_other", "driver.other");
         ("share.execute", "execute");
         ("share.loadgen_wait", "loadgen.lateness");
       ]

(* The Chrome trace of a run: one process lane per child; nested spans
   render as a flame graph. *)
let chrome ~workload (per_child : t list list) =
  let module C = Aeq_obs.Chrome_trace in
  let epoch =
    List.fold_left
      (fun acc spans -> List.fold_left (fun acc s -> Float.min acc s.t0) acc spans)
      infinity per_child
  in
  let events =
    List.concat
      (List.mapi
         (fun pid spans ->
           C.process_name ~pid (Printf.sprintf "%s child %d" workload pid)
           :: List.map
                (fun s ->
                  C.complete ~name:s.name ~cat:"bench" ~pid ~tid:0
                    ~ts_us:((s.t0 -. epoch) *. 1e6)
                    ~dur_us:(Float.max 0.0 (dur s *. 1e6))
                    ~args:[ ("request", Aeq_obs.Json.Num (float_of_int s.request)) ]
                    ())
                spans)
         per_child)
  in
  C.render events
