type t = {
  total_rows : int;
  start : float;
  done_rows : int Atomic.t;
  rates : int Atomic.t array;
      (* per-thread last-morsel rate in rows per second; 0 = no
         sample. Written by each worker domain and read by whichever
         domain wins the adaptive evaluation — a plain array would be
         a data race under the multicore memory model. An int, not a
         float: storing a float boxes it, after every morsel. *)
}

let create ~total_rows ~n_threads =
  {
    total_rows;
    start = Aeq_util.Clock.now ();
    done_rows = Atomic.make 0;
    rates = Array.init (Stdlib.max 1 n_threads) (fun _ -> Atomic.make 0);
  }

let start_time t = t.start

let note_morsel t ~tid ~rows ~seconds =
  ignore (Atomic.fetch_and_add t.done_rows rows);
  if seconds > 0.0 then Atomic.set t.rates.(tid) (int_of_float ((float_of_int rows /. seconds) +. 0.5))

let processed t = Atomic.get t.done_rows

let remaining t = Stdlib.max 0 (t.total_rows - processed t)

(* a loop rather than [Array.iter]: the sum stays an unboxed local
   instead of a float ref a closure would box at every step *)
let avg_rate t =
  let sum = ref 0.0 and n = ref 0 in
  for i = 0 to Array.length t.rates - 1 do
    let r = Atomic.get t.rates.(i) in
    if r > 0 then begin
      sum := !sum +. float_of_int r;
      incr n
    end
  done;
  if !n = 0 then 0.0 else !sum /. float_of_int !n

let reset_rates t = Array.iter (fun cell -> Atomic.set cell 0) t.rates
