(* Unit tests for aeq_util: PRNG determinism/distribution, statistics. *)

let test_prng_deterministic () =
  let a = Aeq_util.Prng.create 42L and b = Aeq_util.Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Aeq_util.Prng.next_int64 a) (Aeq_util.Prng.next_int64 b)
  done

let test_prng_bounds () =
  let g = Aeq_util.Prng.create 7L in
  for _ = 1 to 1000 do
    let x = Aeq_util.Prng.int g 10 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 10);
    let y = Aeq_util.Prng.int_in g 5 9 in
    Alcotest.(check bool) "in closed range" true (y >= 5 && y <= 9);
    let f = Aeq_util.Prng.float g 2.5 in
    Alcotest.(check bool) "float range" true (f >= 0.0 && f < 2.5)
  done

let test_prng_split_independent () =
  let g = Aeq_util.Prng.create 1L in
  let h = Aeq_util.Prng.split g in
  let x = Aeq_util.Prng.next_int64 g and y = Aeq_util.Prng.next_int64 h in
  Alcotest.(check bool) "streams differ" true (not (Int64.equal x y))

(* The splitmix64 stream itself, not just its self-consistency: data
   generation, the simulator and the load generator all replay from it. *)
let test_prng_golden () =
  let first5 seed =
    let g = Aeq_util.Prng.create seed in
    List.init 5 (fun _ -> Aeq_util.Prng.next_int64 g)
  in
  Alcotest.(check (list int64))
    "seed 0"
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL;
      0xF88BB8A8724C81ECL; 0x1B39896A51A8749BL ]
    (first5 0L);
  Alcotest.(check (list int64))
    "seed 42"
    [ 0xBDD732262FEB6E95L; 0x28EFE333B266F103L; 0x47526757130F9F52L;
      0x581CE1FF0E4AE394L; 0x09BC585A244823F2L ]
    (first5 42L);
  let g = Aeq_util.Prng.create 42L in
  let h = Aeq_util.Prng.split g in
  Alcotest.(check int64) "after split" 0x57E1FABA65107204L (Aeq_util.Prng.next_int64 h)

(* The int-valued draws keep the state unboxed: 10k of each may cost
   only the handful of words the measurement itself boxes. *)
let test_prng_no_alloc () =
  let g = Aeq_util.Prng.create 5L in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc + Aeq_util.Prng.int g 100;
    acc := !acc + Aeq_util.Prng.int_in g (-5) 5;
    if Aeq_util.Prng.bool g then incr acc
  done;
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity !acc);
  if words > 16.0 then Alcotest.failf "30k draws allocated %.0f minor words" words

let test_zipf_skew () =
  let g = Aeq_util.Prng.create 3L in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let k = Aeq_util.Prng.zipf g ~n:100 ~theta:0.9 in
    Alcotest.(check bool) "zipf in range" true (k >= 0 && k < 100);
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "head heavier than tail" true (counts.(0) > 10 * counts.(99))

let test_shuffle_permutation () =
  let g = Aeq_util.Prng.create 9L in
  let a = Array.init 50 Fun.id in
  Aeq_util.Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_geomean () =
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Aeq_util.Stats.geomean [ 1.0; 2.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Aeq_util.Stats.geomean [])

let test_linear_fit () =
  let pts = [ (1.0, 3.0); (2.0, 5.0); (3.0, 7.0); (4.0, 9.0) ] in
  let intercept, slope = Aeq_util.Stats.linear_fit pts in
  Alcotest.(check (float 1e-9)) "slope" 2.0 slope;
  Alcotest.(check (float 1e-9)) "intercept" 1.0 intercept

let test_median_percentile () =
  Alcotest.(check (float 1e-9)) "median odd" 3.0 (Aeq_util.Stats.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "median even" 2.5 (Aeq_util.Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Aeq_util.Stats.percentile 0.0 [ 2.0; 1.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "p100" 3.0 (Aeq_util.Stats.percentile 1.0 [ 2.0; 1.0; 3.0 ])

let test_clock_monotone () =
  let t0 = Aeq_util.Clock.now () in
  Aeq_util.Clock.busy_wait 0.002;
  let t1 = Aeq_util.Clock.now () in
  Alcotest.(check bool) "busy_wait advances clock" true (t1 -. t0 >= 0.0015)

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "golden stream" `Quick test_prng_golden;
          Alcotest.test_case "draws allocate nothing" `Quick test_prng_no_alloc;
          Alcotest.test_case "zipf" `Quick test_zipf_skew;
          Alcotest.test_case "shuffle" `Quick test_shuffle_permutation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "linear_fit" `Quick test_linear_fit;
          Alcotest.test_case "median/percentile" `Quick test_median_percentile;
        ] );
      ("clock", [ Alcotest.test_case "busy_wait" `Quick test_clock_monotone ]);
    ]
