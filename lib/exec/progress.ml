type t = {
  total_rows : int;
  done_rows : int Atomic.t;
  rates : int Atomic.t array;
      (* per-thread last-morsel rate in rows per second; 0 = no
         sample. Written by each worker domain and read by whichever
         domain wins the adaptive evaluation — a plain array would be
         a data race under the multicore memory model. An int, not a
         float: storing a float boxes it, after every morsel. *)
  epoch : int Atomic.t;  (* tier switches so far *)
}

let create ~total_rows ~n_threads =
  {
    total_rows;
    done_rows = Atomic.make 0;
    rates = Array.init (Stdlib.max 1 n_threads) (fun _ -> Atomic.make 0);
    epoch = Atomic.make 0;
  }

let epoch t = Atomic.get t.epoch

(* A morsel begun before a switch ran in the old tier: its rows count,
   its rate does not. The re-check catches a switch during the store. *)
let note_morsel t ~tid ~epoch ~rows ~ns =
  ignore (Atomic.fetch_and_add t.done_rows rows);
  if ns > 0 && epoch = Atomic.get t.epoch then begin
    Atomic.set t.rates.(tid) (rows * 1_000_000_000 / ns);
    if epoch <> Atomic.get t.epoch then Atomic.set t.rates.(tid) 0
  end

let processed t = Atomic.get t.done_rows

let remaining t = Stdlib.max 0 (t.total_rows - processed t)

let avg_rate t =
  let sum = ref 0 and n = ref 0 in
  for i = 0 to Array.length t.rates - 1 do
    let r = Atomic.get t.rates.(i) in
    if r > 0 then begin
      sum := !sum + r;
      incr n
    end
  done;
  if !n = 0 then 0 else !sum / !n

let switch t =
  Atomic.incr t.epoch;
  Array.iter (fun cell -> Atomic.set cell 0) t.rates
