type kind =
  | Ev_morsel of Aeq_backend.Cost_model.mode
  | Ev_compile of Aeq_backend.Cost_model.mode
  | Ev_compile_failed of Aeq_backend.Cost_model.mode

type event = { pipeline : int; tid : int; t0 : float; t1 : float; kind : kind }

type t = { epoch : float; ring : event Aeq_obs.Ring.t }

let create () =
  { epoch = Aeq_util.Clock.now (); ring = Aeq_obs.Ring.create ~start:(fun e -> e.t0) () }

let epoch t = t.epoch

let record t ~pipeline ~tid ~t0 ~t1 kind =
  Aeq_obs.Ring.push t.ring { pipeline; tid; t0 = t0 -. t.epoch; t1 = t1 -. t.epoch; kind }

let events t = Aeq_obs.Ring.snapshot t.ring

let dropped t = Aeq_obs.Ring.dropped t.ring

let n_events t = Aeq_obs.Ring.length t.ring

let mode_char = function
  | Aeq_backend.Cost_model.Bytecode -> 'b'
  | Aeq_backend.Cost_model.Unopt -> 'u'
  | Aeq_backend.Cost_model.Opt -> 'o'

let render t ~n_threads =
  let evs = events t in
  let t_end = List.fold_left (fun acc e -> Stdlib.max acc e.t1) 0.0 evs in
  let width = 100 in
  let lanes = Array.init n_threads (fun _ -> Bytes.make width '.') in
  List.iter
    (fun e ->
      if e.tid < n_threads && t_end > 0.0 then begin
        let c0 = int_of_float (e.t0 /. t_end *. float_of_int (width - 1)) in
        let c1 = int_of_float (e.t1 /. t_end *. float_of_int (width - 1)) in
        let ch =
          match e.kind with
          | Ev_compile _ -> 'C'
          | Ev_compile_failed _ -> 'X'
          | Ev_morsel m -> mode_char m
        in
        for c = Stdlib.max 0 c0 to Stdlib.min (width - 1) c1 do
          Bytes.set lanes.(e.tid) c ch
        done
      end)
    evs;
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "trace: %.2f ms total ('b' bytecode, 'u' unopt, 'o' opt, 'C' compile)\n"
       (t_end *. 1000.0));
  Array.iteri
    (fun i lane -> Buffer.add_string buf (Printf.sprintf "T%d %s\n" i (Bytes.to_string lane)))
    lanes;
  Buffer.contents buf
