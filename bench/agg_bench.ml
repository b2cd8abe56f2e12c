(* Aggregation microbenchmark: 180,000 rows into 45,000 groups on two
   threads, the shape of TPC-H Q18's group-by at sf 0.03. The rows run
   through [Agg.get_group] on a pool job with the driver's morsel
   sizes and update one SUM; then [Agg.merge] and [Agg.materialize]
   run as the driver runs them at the pipeline barrier. Each run takes
   a fresh lease of one arena.

   Usage:  agg_bench.exe [runs]
   Prints, for keys in scan order (four rows per group, in order) and
   for uniformly random keys, the best wall time of [runs] runs
   (default 7) in ms, and the part of that run spent in [merge] and
   [materialize]. *)

module A = Aeq_mem.Arena
module Agg = Aeq_rt.Agg
module Pool = Aeq_exec.Pool

let n_rows = 180_000

let n_groups = 45_000

let n_threads = 2

(* [Driver]'s morsel sizes *)
let morsel_size ~processed = Stdlib.min 16384 (Stdlib.max 512 (processed / (8 * n_threads)))

let run_once arena pool keys =
  let lease = A.lease arena in
  let allocs = Array.init n_threads (fun _ -> A.lease_allocator lease) in
  let agg = Agg.create arena ~n_threads ~key_arity:1 ~accs:[ Agg.Sum ] in
  let next = Atomic.make 0 and processed = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  Pool.run ~max_tids:n_threads pool (fun ~tid ->
      let continue_ = ref true in
      while !continue_ do
        let size = morsel_size ~processed:(Atomic.get processed) in
        let b = Atomic.fetch_and_add next size in
        if b >= n_rows then continue_ := false
        else begin
          let e = Stdlib.min (b + size) n_rows in
          for i = b to e - 1 do
            let row = Agg.get_group agg ~tid ~allocator:allocs.(tid) keys ~k1:(8 * i) ~k2:0 in
            let c = A.chunk arena row and o = A.chunk_offset row in
            A.chunk_set_i64 c o (Int64.add (A.chunk_get_i64 c o) (Int64.of_int (1 + (i mod 50))))
          done;
          ignore (Atomic.fetch_and_add processed (e - b))
        end
      done);
  let t1 = Unix.gettimeofday () in
  Agg.merge agg ~run:(fun f -> Pool.run ~max_tids:n_threads pool f);
  let n, _ = Agg.materialize agg ~allocator:allocs.(0) in
  let t2 = Unix.gettimeofday () in
  A.release lease;
  if n <> n_groups then failwith (Printf.sprintf "agg_bench: %d groups, expected %d" n n_groups);
  (t2 -. t0, t2 -. t1)

let () =
  let runs = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 7 in
  let arena = A.create () in
  let pool = Pool.create ~n_threads () in
  let st = Random.State.make [| 42 |] in
  let cases =
    [
      ("scan", Array.init n_rows (fun i -> Int64.of_int (i / 4)));
      ( "random",
        (* every group at least once, the rest uniform *)
        Array.init n_rows (fun i ->
            Int64.of_int (if i < n_groups then i else Random.State.int st n_groups)) );
    ]
  in
  List.iter
    (fun (name, keys) ->
      if name = "random" then
        for i = n_rows - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let k = keys.(i) in
          keys.(i) <- keys.(j);
          keys.(j) <- k
        done;
      let best = ref (infinity, 0.) in
      (* row [i]'s key at byte [8 * i], as generated code keeps it in
         its register file *)
      let key_bytes = Bytes.create (8 * n_rows) in
      Array.iteri (fun i k -> Bytes.set_int64_ne key_bytes (8 * i) k) keys;
      for _ = 1 to runs do
        let r = run_once arena pool key_bytes in
        if fst r < fst !best then best := r
      done;
      Printf.printf "%s %.2f ms (merge and materialize %.2f)\n%!" name (1000. *. fst !best)
        (1000. *. snd !best))
    cases;
  Pool.shutdown pool
