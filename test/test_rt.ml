(* Tests for the query runtime: hash-join table, aggregation tables,
   dictionary, output buffers. *)

module A = Aeq_mem.Arena
module HT = Aeq_rt.Hash_table
module Agg = Aeq_rt.Agg

(* The runtime reads keys where generated code keeps them, in its
   register file; these give each call a fresh buffer holding its keys. *)
let key_bytes keys =
  let b = Bytes.create (8 * List.length keys) in
  List.iteri (fun i k -> Bytes.set_int64_ne b (8 * i) k) keys;
  b

let ht_insert ht ~tid ~allocator ~key = HT.insert ht ~tid ~allocator (key_bytes [ key ]) 0

let ht_lookup ht ~key = HT.lookup ht (key_bytes [ key ]) 0

let get_group agg ~tid ~allocator ~k1 ~k2 =
  Agg.get_group agg ~tid ~allocator (key_bytes [ k1; k2 ]) ~k1:0 ~k2:8

let test_ht_basic () =
  let arena = A.create () in
  let alloc = A.allocator arena in
  let ht = HT.create arena ~n_threads:1 ~payload_bytes:8 in
  for i = 0 to 99 do
    let p = ht_insert ht ~tid:0 ~allocator:alloc ~key:(Int64.of_int (i mod 10)) in
    A.set_i64 arena p (Int64.of_int i)
  done;
  Alcotest.(check int) "size" 100 (HT.size ht);
  HT.link ht ~allocator:alloc;
  (* key 3 has 10 matches, newest first *)
  let seen = ref [] in
  let e = ref (ht_lookup ht ~key:3L) in
  while !e <> A.null do
    let v = A.get_i64 arena (!e + HT.payload_offset) in
    Alcotest.(check int) "payload key residue" 3 (Int64.to_int v mod 10);
    seen := Int64.to_int v :: !seen;
    e := HT.next_match ht ~entry:!e
  done;
  Alcotest.(check (list int)) "10 matches, newest first"
    (List.init 10 (fun i -> 3 + (10 * i)))
    !seen;
  Alcotest.(check int) "missing key" A.null (ht_lookup ht ~key:77L)

let test_ht_concurrent_build () =
  let arena = A.create () in
  let n_domains = 4 and per = 1000 in
  let ht = HT.create arena ~n_threads:n_domains ~payload_bytes:8 in
  (* the instrumented spawn and join are the build's barrier: under
     AEQ_RACE they order every chain's inserts before [link] *)
  let domains =
    List.init n_domains (fun d ->
        Aeq_race.spawn (fun () ->
            let alloc = A.allocator arena in
            for i = 0 to per - 1 do
              let key = Int64.of_int ((d * per) + i) in
              let p = ht_insert ht ~tid:d ~allocator:alloc ~key in
              A.set_i64 arena p key
            done))
  in
  List.iter Aeq_race.join domains;
  Alcotest.(check int) "all inserted" (n_domains * per) (HT.size ht);
  Alcotest.(check bool) "not linked before the barrier" false (HT.linked ht);
  HT.link ht ~allocator:(A.allocator arena);
  Alcotest.(check int) "directory sized to the entries" 4096 (HT.n_buckets ht);
  for k = 0 to (n_domains * per) - 1 do
    let e = ht_lookup ht ~key:(Int64.of_int k) in
    if e = A.null then Alcotest.failf "key %d missing" k;
    let v = A.get_i64 arena (e + HT.payload_offset) in
    Alcotest.(check int64) "payload" (Int64.of_int k) v;
    Alcotest.(check int) "one match" A.null (HT.next_match ht ~entry:e)
  done

(* A build that keeps [count] of a 1,500-row table (a filtered build
   side) gets a directory of next_pow2 (max 16 count) buckets, not one
   sized to the table it scanned. *)
let test_ht_filtered_directory () =
  let arena = A.create () in
  let alloc = A.allocator arena in
  List.iter
    (fun (count, buckets) ->
      let ht = HT.create arena ~n_threads:2 ~payload_bytes:8 in
      for i = 0 to 1499 do
        if i mod 1500 < count then
          ignore (ht_insert ht ~tid:(i mod 2) ~allocator:alloc ~key:(Int64.of_int i))
      done;
      Alcotest.(check int) "no directory before link" 0 (HT.n_buckets ht);
      HT.link ht ~allocator:alloc;
      Alcotest.(check int) (Printf.sprintf "%d entries" count) buckets (HT.n_buckets ht);
      for i = 0 to count - 1 do
        if ht_lookup ht ~key:(Int64.of_int i) = A.null then Alcotest.failf "key %d missing" i
      done)
    [ (0, 16); (1, 16); (16, 16); (17, 32); (38, 64); (1024, 1024); (1025, 2048) ];
  let ht = HT.create arena ~n_threads:1 ~payload_bytes:8 in
  Alcotest.check_raises "probing before link raises"
    (Invalid_argument "index out of bounds")
    (fun () -> ignore (ht_lookup ht ~key:1L));
  HT.link ht ~allocator:alloc;
  Alcotest.check_raises "a second link raises"
    (Invalid_argument "Hash_table.link: already linked")
    (fun () -> HT.link ht ~allocator:alloc)

(* minor words allocated by [n] calls of [f] *)
let words_of n f =
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    f i
  done;
  Gc.minor_words () -. w0

(* Entry access goes through the arena's chunk primitives and keys
   are read from the caller's buffer: probing a join table and finding
   an existing group allocate nothing. *)
let test_entry_access_allocates_nothing () =
  let arena = A.create () in
  let alloc = A.allocator arena in
  let keys = List.init 512 (fun i -> Int64.of_int (i mod 128)) in
  (* key [i] at byte [8 * i]; a second key at [8 * (512 + i)] *)
  let buf = key_bytes (keys @ List.map (fun k -> Int64.rem k 7L) keys) in
  let k2 i = 8 * (512 + i) in
  let ht = HT.create arena ~n_threads:1 ~payload_bytes:8 in
  for i = 0 to 511 do
    ignore (HT.insert ht ~tid:0 ~allocator:alloc buf (8 * i))
  done;
  HT.link ht ~allocator:alloc;
  let entries = Array.init 512 (fun i -> HT.lookup ht buf (8 * i)) in
  Alcotest.(check (float 0.)) "lookup" 0.
    (words_of 512 (fun i -> ignore (Sys.opaque_identity (HT.lookup ht buf (8 * i)))));
  Alcotest.(check (float 0.)) "next_match" 0.
    (words_of 512 (fun i -> ignore (Sys.opaque_identity (HT.next_match ht ~entry:entries.(i)))));
  List.iter
    (fun key_arity ->
      let agg = Agg.create arena ~n_threads:1 ~key_arity ~accs:[ Agg.Sum; Agg.Min ] in
      for i = 0 to 511 do
        ignore (Agg.get_group agg ~tid:0 ~allocator:alloc buf ~k1:(8 * i) ~k2:(k2 i))
      done;
      Alcotest.(check (float 0.))
        (Printf.sprintf "get_group on an existing group, %d key(s)" key_arity)
        0.
        (words_of 512 (fun i ->
             ignore
               (Sys.opaque_identity
                  (Agg.get_group agg ~tid:0 ~allocator:alloc buf ~k1:(8 * i) ~k2:(k2 i))))))
    [ 1; 2 ]

let test_agg_merge () =
  let arena = A.create () in
  let alloc = A.allocator arena in
  let agg =
    Aeq_rt.Agg.create arena ~n_threads:3 ~key_arity:1
      ~accs:[ Aeq_rt.Agg.Sum; Aeq_rt.Agg.Count; Aeq_rt.Agg.Min; Aeq_rt.Agg.Max ]
  in
  (* three "threads" each add values for keys 0..4 *)
  for tid = 0 to 2 do
    for i = 0 to 99 do
      let key = Int64.of_int (i mod 5) in
      let row = get_group agg ~tid ~allocator:alloc ~k1:key ~k2:0L in
      let v = Int64.of_int ((tid * 100) + i) in
      A.set_i64 arena row (Int64.add (A.get_i64 arena row) v);
      A.set_i64 arena (row + 8) (Int64.add (A.get_i64 arena (row + 8)) 1L);
      if Int64.compare v (A.get_i64 arena (row + 16)) < 0 then A.set_i64 arena (row + 16) v;
      if Int64.compare v (A.get_i64 arena (row + 24)) > 0 then A.set_i64 arena (row + 24) v
    done
  done;
  Aeq_rt.Agg.merge agg;
  Alcotest.(check int) "5 groups" 5 (Aeq_rt.Agg.n_groups agg);
  let n, cols = Aeq_rt.Agg.materialize agg ~allocator:alloc in
  Alcotest.(check int) "materialized rows" 5 n;
  (* total count across groups = 300 *)
  let total = ref 0L in
  for i = 0 to n - 1 do
    total := Int64.add !total (A.get_i64 arena (cols.(2) + (8 * i)))
  done;
  Alcotest.(check int64) "count sums to 300" 300L !total

(* A join table and a grouped aggregate built in one lease, released,
   then built again in a second lease: the second lease reuses the
   first one's chunks and must see none of its entries or groups. *)
let test_second_lease_sees_nothing () =
  let arena = A.create ~chunk_size:4096 () in
  let build lease keys =
    let alloc = A.lease_allocator lease in
    let ht = HT.create arena ~n_threads:1 ~payload_bytes:8 in
    let agg = Agg.create arena ~n_threads:1 ~key_arity:1 ~accs:[ Agg.Sum; Agg.Count ] in
    List.iter
      (fun k ->
        A.set_i64 arena (ht_insert ht ~tid:0 ~allocator:alloc ~key:k) k;
        let row = get_group agg ~tid:0 ~allocator:alloc ~k1:k ~k2:0L in
        A.set_i64 arena row (Int64.add (A.get_i64 arena row) k);
        A.set_i64 arena (row + 8) (Int64.succ (A.get_i64 arena (row + 8))))
      keys;
    HT.link ht ~allocator:alloc;
    (ht, agg, alloc)
  in
  let keys = List.init 500 (fun i -> Int64.of_int (i + 1)) in
  let first = A.lease arena in
  ignore (build first keys);
  A.release first;
  Alcotest.(check bool) "first lease's chunks pooled" true (A.spare_bytes arena > 0);
  let second = A.lease arena in
  let ht, agg, alloc = build second [] in
  List.iter
    (fun k -> Alcotest.(check int) "no stale join entry" A.null (ht_lookup ht ~key:k))
    keys;
  let row = get_group agg ~tid:0 ~allocator:alloc ~k1:7L ~k2:0L in
  Alcotest.(check int64) "a new group starts at its initial sum" 0L (A.get_i64 arena row);
  Alcotest.(check int64) "and count" 0L (A.get_i64 arena (row + 8));
  Agg.merge agg;
  Alcotest.(check int) "only the new group" 1 (Agg.n_groups agg);
  A.release second;
  Alcotest.(check (list string)) "arena coherent" [] (A.check arena)

(* The bag of materialized rows for 5000 tuples over 407 (k1, k2)
   groups, spread over [n_threads] tables by [tid_of]. *)
let agg_bag ~n_threads ~tid_of =
  let arena = A.create () in
  let allocs = Array.init n_threads (fun _ -> A.allocator arena) in
  let agg =
    Agg.create arena ~n_threads ~key_arity:2 ~accs:[ Agg.Sum; Agg.Count; Agg.Min; Agg.Max ]
  in
  for i = 0 to 4999 do
    let tid = tid_of i in
    let k1 = Int64.of_int (i mod 37) and k2 = Int64.of_int (i mod 11) in
    let v = Int64.of_int (((i * 7919) mod 1000) - 500) in
    let row = get_group agg ~tid ~allocator:allocs.(tid) ~k1 ~k2 in
    let upd o f = A.set_i64 arena (row + o) (f (A.get_i64 arena (row + o))) in
    upd 0 (Int64.add v);
    upd 8 Int64.succ;
    upd 16 (fun m -> if Int64.compare v m < 0 then v else m);
    upd 24 (fun m -> if Int64.compare v m > 0 then v else m)
  done;
  Agg.merge agg;
  let n, cols = Agg.materialize agg ~allocator:allocs.(0) in
  Alcotest.(check int) "n_groups agrees" n (Agg.n_groups agg);
  List.init n (fun r -> Array.to_list (Array.map (fun c -> A.get_i64 arena (c + (8 * r))) cols))
  |> List.sort compare

let test_agg_threads_match_one () =
  let one = agg_bag ~n_threads:1 ~tid_of:(fun _ -> 0) in
  Alcotest.(check int) "every group" 407 (List.length one);
  (* groups with k1 < 10 only ever reach thread 1, so merge must link
     them into thread 0's table and grow it *)
  let two = agg_bag ~n_threads:2 ~tid_of:(fun i -> if i mod 37 < 10 then 1 else i mod 2) in
  Alcotest.(check (list (list int64))) "2 threads: same bag" one two;
  (* thread 0 sees no tuple at all *)
  let idle0 = agg_bag ~n_threads:3 ~tid_of:(fun i -> 1 + (i mod 2)) in
  Alcotest.(check (list (list int64))) "idle thread 0: same bag" one idle0

(* ---- two-phase aggregation ------------------------------------------ *)

(* A run of the merge's work on [n] participants, as a pool job runs
   it: tid 0 in the caller, the others on their own domains. *)
let on_domains n f =
  let helpers = List.init (n - 1) (fun i -> Domain.spawn (fun () -> f ~tid:(i + 1))) in
  f ~tid:0;
  List.iter Domain.join helpers

let all_kinds = [ Agg.Sum; Agg.Count; Agg.Min; Agg.Max ]

type agg_case = {
  n_threads : int;
  key_arity : int;
  n_groups : int;
  rows_per_group : int;
  uniform : bool; (* uniformly random keys, else scan order *)
  parallel : bool; (* merge on [n_threads] domains *)
  seed : int;
}

let show_case c =
  Printf.sprintf
    "threads %d, keys %d, groups %d, rows/group %d, %s keys, %s merge, seed %d" c.n_threads
    c.key_arity c.n_groups c.rows_per_group
    (if c.uniform then "uniform" else "scan-ordered")
    (if c.parallel then "parallel" else "sequential")
    c.seed

(* Past 8,192 buckets x 4 entries a thread must overflow, and past
   1,024 entries the merge is partitioned. *)
let agg_case_gen =
  QCheck.Gen.(
    let* n_threads = int_range 1 3 and* key_arity = int_range 1 2 in
    let* big = bool in
    let* n_groups = if big then int_range 33_000 40_000 else int_range 1 300 in
    let* rows_per_group = int_range 1 3 and* uniform = bool and* parallel = bool in
    let* seed = int_bound 1_000_000 in
    return { n_threads; key_arity; n_groups; rows_per_group; uniform; parallel; seed })

(* [merge] + [materialize] against a [Hashtbl] fold of the same rows,
   fed in random morsels to random threads *)
let prop_agg_matches_fold =
  QCheck.Test.make ~name:"merge + materialize = Hashtbl fold" ~count:24
    (QCheck.make ~print:show_case agg_case_gen) (fun c ->
      let st = Random.State.make [| c.seed |] in
      let arena = A.create () in
      let lease = A.lease arena in
      let allocs = Array.init c.n_threads (fun _ -> A.lease_allocator lease) in
      let agg = Agg.create arena ~n_threads:c.n_threads ~key_arity:c.key_arity ~accs:all_kinds in
      let reference = Hashtbl.create 1024 in
      let n_rows = c.n_groups * c.rows_per_group in
      let row_at i =
        let g = if c.uniform then Random.State.int st c.n_groups else i / c.rows_per_group in
        let k1, k2 = if c.key_arity = 2 then (g / 7, g mod 7) else (g, 0) in
        (Int64.of_int k1, Int64.of_int k2, Int64.of_int (Random.State.int st 2001 - 1000))
      in
      let i = ref 0 in
      while !i < n_rows do
        let tid = Random.State.int st c.n_threads in
        let stop = Stdlib.min n_rows (!i + 1 + Random.State.int st 4096) in
        while !i < stop do
          let k1, k2, v = row_at !i in
          let row = get_group agg ~tid ~allocator:allocs.(tid) ~k1 ~k2 in
          let upd o f = A.set_i64 arena (row + o) (f (A.get_i64 arena (row + o))) in
          upd 0 (Int64.add v);
          upd 8 Int64.succ;
          upd 16 (fun m -> if Int64.compare v m < 0 then v else m);
          upd 24 (fun m -> if Int64.compare v m > 0 then v else m);
          let s, n, lo, hi =
            Option.value (Hashtbl.find_opt reference (k1, k2))
              ~default:(0L, 0L, Int64.max_int, Int64.min_int)
          in
          Hashtbl.replace reference (k1, k2)
            (Int64.add s v, Int64.succ n, Int64.min lo v, Int64.max hi v);
          incr i
        done
      done;
      if c.parallel then Agg.merge agg ~run:(on_domains c.n_threads) else Agg.merge agg;
      let n, cols = Agg.materialize agg ~allocator:allocs.(0) in
      let got =
        List.init n (fun r -> Array.to_list (Array.map (fun col -> A.get_i64 arena (col + (8 * r))) cols))
        |> List.sort compare
      in
      let want =
        Hashtbl.fold
          (fun (k1, k2) (s, n, lo, hi) acc ->
            ((if c.key_arity = 2 then [ k1; k2 ] else [ k1 ]) @ [ s; n; lo; hi ]) :: acc)
          reference []
        |> List.sort compare
      in
      A.release lease;
      n = Agg.n_groups agg && got = want)

(* A thread's directory doubles up to one arena chunk and no further,
   however many groups it holds; the merge's directory is no larger.
   Each new group's [lease_used] delta is its entry plus, when the
   directory grew, the new directory. *)
let test_agg_directory_bounded () =
  let arena = A.create () in
  let lease = A.lease arena in
  let alloc = A.lease_allocator lease in
  let agg = Agg.create arena ~n_threads:1 ~key_arity:1 ~accs:[ Agg.Sum ] in
  let entry_bytes = 24 and n = 100_000 and largest = ref 0 in
  let used0 = A.lease_used lease in
  for k = 0 to n - 1 do
    let before = A.lease_used lease in
    ignore (get_group agg ~tid:0 ~allocator:alloc ~k1:(Int64.of_int k) ~k2:0L);
    largest := Stdlib.max !largest (A.lease_used lease - before)
  done;
  (* a call that doubles the directory takes the new directory and at
     most its entry from the lease *)
  Alcotest.(check bool) "largest directory: one 64 KiB chunk" true
    (!largest >= A.default_chunk_size && !largest <= A.default_chunk_size + entry_bytes);
  (* An outgrown directory becomes the thread's next entries: the lease
     holds the entries and the live directory, and of the seven
     outgrown ones (64 to 4,096 buckets, 63.5 KiB) no more than the
     tail of each that is too short for an entry. *)
  let used = A.lease_used lease - used0 in
  let bound = (n * entry_bytes) + A.default_chunk_size + (7 * entry_bytes) in
  if used > bound then
    Alcotest.failf "%d groups hold %d lease bytes, over entries plus one directory (%d)" n used
      bound;
  let before = A.lease_used lease in
  Agg.merge agg;
  Alcotest.(check bool) "the merge's directory within a chunk" true
    (A.lease_used lease - before <= A.default_chunk_size);
  Alcotest.(check int) "every group" n (Agg.n_groups agg);
  A.release lease

(* Finding a group still in the thread's directory allocates nothing,
   also once the table has overflowed: the 512 newest of 40,000
   groups, looked up until none has to be made again. *)
let test_agg_find_after_overflow_allocates_nothing () =
  let arena = A.create () in
  let lease = A.lease arena in
  let alloc = A.lease_allocator lease in
  List.iter
    (fun key_arity ->
      let agg = Agg.create arena ~n_threads:1 ~key_arity ~accs:all_kinds in
      let key g = if key_arity = 2 then (Int64.of_int (g / 5), Int64.of_int (g mod 5)) else (Int64.of_int g, 0L) in
      for g = 0 to 39_999 do
        let k1, k2 = key g in
        ignore (get_group agg ~tid:0 ~allocator:alloc ~k1 ~k2)
      done;
      let keys = Array.init 512 (fun i -> key (39_488 + i)) in
      let k1s = Array.map fst keys and k2s = Array.map snd keys in
      let pass () =
        let before = A.lease_used lease in
        Array.iteri (fun i k1 -> ignore (get_group agg ~tid:0 ~allocator:alloc ~k1 ~k2:k2s.(i))) k1s;
        A.lease_used lease - before
      in
      let rec settle n = if n > 0 && pass () > 0 then settle (n - 1) in
      settle 8;
      Alcotest.(check int) "all 512 found" 0 (pass ());
      let buf = key_bytes (Array.to_list k1s @ Array.to_list k2s) in
      Alcotest.(check (float 0.))
        (Printf.sprintf "get_group after overflow, %d key(s)" key_arity)
        0.
        (words_of 512 (fun i ->
             ignore
               (Sys.opaque_identity
                  (Agg.get_group agg ~tid:0 ~allocator:alloc buf ~k1:(8 * i) ~k2:(8 * (512 + i)))))))
    [ 1; 2 ];
  A.release lease

let test_dict () =
  let d = Aeq_rt.Dict.create () in
  let a = Aeq_rt.Dict.encode d "hello" in
  let b = Aeq_rt.Dict.encode d "world" in
  let a' = Aeq_rt.Dict.encode d "hello" in
  Alcotest.(check int64) "stable" a a';
  Alcotest.(check bool) "distinct" true (not (Int64.equal a b));
  Alcotest.(check string) "decode" "world" (Aeq_rt.Dict.decode d b);
  let bm = Aeq_rt.Dict.codes_matching d (fun s -> String.length s = 5) in
  Alcotest.(check bool) "hello matches" true (Aeq_rt.Bitmap.get bm (Int64.to_int a));
  Alcotest.(check int) "both match" 2 (Aeq_rt.Bitmap.cardinality bm)

let test_output () =
  let arena = A.create () in
  let alloc = A.allocator arena in
  let out = Aeq_rt.Output.create arena ~n_threads:2 ~row_bytes:16 in
  for i = 0 to 9 do
    let p = Aeq_rt.Output.row out ~tid:(i mod 2) ~allocator:alloc in
    A.set_i64 arena p (Int64.of_int i)
  done;
  Alcotest.(check int) "count" 10 (Aeq_rt.Output.count out);
  let rows = Aeq_rt.Output.rows out in
  Alcotest.(check int) "rows array" 10 (Array.length rows);
  let seen = Array.to_list rows |> List.map (fun p -> A.get_i64 arena p) |> List.sort compare in
  Alcotest.(check bool) "all values present" true
    (seen = List.init 10 (fun i -> Int64.of_int i))

(* thread 0's rows in insertion order, then thread 1's: the order the
   driver sorts stably and limits, so unsorted results and sort ties
   come out as before *)
let test_output_order () =
  let arena = A.create ~chunk_size:4096 () in
  let allocs = [| A.allocator arena; A.allocator arena |] in
  let out = Aeq_rt.Output.create arena ~n_threads:2 ~row_bytes:8 in
  (* enough rows to span several chunks per thread *)
  for i = 0 to 1999 do
    let tid = if i mod 3 = 0 then 1 else 0 in
    A.set_i64 arena (Aeq_rt.Output.row out ~tid ~allocator:allocs.(tid)) (Int64.of_int i)
  done;
  let got = Array.to_list (Array.map (A.get_i64 arena) (Aeq_rt.Output.rows out)) in
  let of_tid t = List.filter (fun i -> (i mod 3 = 0) = (t = 1)) (List.init 2000 Fun.id) in
  Alcotest.(check (list int64)) "thread 0, then thread 1, each in insertion order"
    (List.map Int64.of_int (of_tid 0 @ of_tid 1))
    got

let test_output_row_allocates_nothing () =
  let arena = A.create () in
  let alloc = A.allocator arena in
  let out = Aeq_rt.Output.create arena ~n_threads:2 ~row_bytes:16 in
  (* the first row takes the allocator's chunk; 1,000 more fit in it *)
  ignore (Aeq_rt.Output.row out ~tid:1 ~allocator:alloc);
  Alcotest.(check (float 0.)) "minor words for 1,000 rows" 0.
    (words_of 1000 (fun i ->
         ignore (Sys.opaque_identity (Aeq_rt.Output.row out ~tid:(i land 1) ~allocator:alloc))));
  Alcotest.(check int) "count" 1001 (Aeq_rt.Output.count out)

let test_year_of () =
  (* 1970-01-01 = 0, 1998-09-02, 1992-01-01 *)
  Alcotest.(check int64) "1970" 1970L (Aeq_rt.Symbols.year_of_days 0L);
  Alcotest.(check int64) "1992" 1992L (Aeq_rt.Symbols.year_of_days 8035L);
  Alcotest.(check int64) "1998" 1998L (Aeq_rt.Symbols.year_of_days 10471L)

let () =
  Alcotest.run "rt"
    [
      ( "hash table",
        [
          Alcotest.test_case "basic" `Quick test_ht_basic;
          Alcotest.test_case "concurrent build" `Quick test_ht_concurrent_build;
          Alcotest.test_case "filtered build directory" `Quick test_ht_filtered_directory;
          Alcotest.test_case "entry access allocates nothing" `Quick
            test_entry_access_allocates_nothing;
        ] );
      ( "agg",
        [
          Alcotest.test_case "merge/materialize" `Quick test_agg_merge;
          Alcotest.test_case "threads match one" `Quick test_agg_threads_match_one;
          Alcotest.test_case "directory bounded" `Quick test_agg_directory_bounded;
          Alcotest.test_case "find after overflow allocates nothing" `Quick
            test_agg_find_after_overflow_allocates_nothing;
          QCheck_alcotest.to_alcotest prop_agg_matches_fold;
        ] );
      ( "lease reuse",
        [ Alcotest.test_case "second lease sees nothing" `Quick test_second_lease_sees_nothing ] );
      ("dict", [ Alcotest.test_case "encode/decode/match" `Quick test_dict ]);
      ( "output",
        [
          Alcotest.test_case "rows" `Quick test_output;
          Alcotest.test_case "rows in thread then insertion order" `Quick test_output_order;
          Alcotest.test_case "row allocates nothing" `Quick test_output_row_allocates_nothing;
        ] );
      ("dates", [ Alcotest.test_case "year_of" `Quick test_year_of ]);
    ]
