(* Seeded inputs. The seed decides query order, literal variants,
   giant-query coefficients and the wire arrival schedule; the program
   under test only ever sees the generated SQL text. What a seed does
   not change is the work a statement costs, so runs with different
   seeds measure the same thing.

   A child draws all of its inputs with [draw] before it times anything
   and then only reads them, so what it sends never depends on timing
   and [digest] fingerprints exactly the requests it can send. *)

module Prng = Aeq_util.Prng
module Q = Aeq_workload.Queries

(* [key] names the distinct statement a request stands for: the unit of
   the geomean and of the per-layer probes. *)
type request = { key : string; sql : string }

type arrival = { at : float;  (** seconds after the phase starts *) req : request }

type t =
  | Closed of { passes : request list array; distinct : request list }
      (** the loop sends the passes in order, cycling; the per-layer
          probes measure [distinct], one request per statement *)
  | Open of { capacity : request array; schedules : arrival array array; distinct : request list }
      (** the capacity phase cycles through [capacity]; one schedule
          per rate of [Spec.wire_rates] *)

let of_list = List.map (fun (key, sql) -> { key; sql })

let tpch = of_list Q.tpch

let meta = of_list Q.metadata

let shuffled rng l =
  let a = Array.of_list l in
  Prng.shuffle rng a;
  Array.to_list a

(* A Fig. 15 machine-generated query: [n] aggregates over lineitem with
   seeded coefficients, so every call yields fresh text (a plan-cache
   miss, as generated SQL is), and a selective predicate, so the front
   end rather than the scan dominates. *)
let giant rng n =
  let b = Buffer.create (n * 80) in
  Buffer.add_string b "select ";
  for i = 0 to n - 1 do
    if i > 0 then Buffer.add_string b ", ";
    Printf.bprintf b
      "sum(l_quantity * %d + l_extendedprice - l_discount * %d + %d) as agg_%d"
      (Prng.int_in rng 2 97) (Prng.int_in rng 2 97) (Prng.int_in rng 1 99_999) i
  done;
  Buffer.add_string b " from lineitem where l_quantity < 2";
  { key = Printf.sprintf "giant%d" n; sql = Buffer.contents b }

(* meta1 and meta4 with seeded literals. The extra bound is always true;
   its literal makes the text new, so the server prepares it cold. *)
let meta1_variant rng =
  let nation = Prng.int rng 25 and fresh = Prng.int_in rng 1_000 999_999 in
  {
    key = "meta1_variant";
    sql =
      Printf.sprintf
        "select n_name, r_name from nation join region on n_regionkey = r_regionkey \
         where n_nationkey = %d and n_regionkey < %d order by n_name"
        nation fresh;
  }

let meta4_variant rng =
  let supplier = Prng.int_in rng 1 100 and fresh = Prng.int_in rng 1_000 999_999 in
  {
    key = "meta4_variant";
    sql =
      Printf.sprintf
        "select s_name, n_name, r_name from supplier join nation on s_nationkey = \
         n_nationkey join region on n_regionkey = r_regionkey where s_suppkey = %d \
         and s_nationkey < %d"
        supplier fresh;
  }

let wire_request rng =
  if Prng.float rng 1.0 < Spec.variant_share then
    if Prng.bool rng then meta1_variant rng else meta4_variant rng
  else Prng.pick rng (Array.of_list meta)

(* [rate * duration] Poisson arrivals conditioned on all landing in
   [0, duration): the gaps are exponential, rescaled so the offered rate
   is exact and the achieved rate does not inherit the count's noise. *)
let schedule rng ~rate ~duration =
  let n = max 1 (int_of_float (Float.round (rate *. duration))) in
  let gaps = Array.init (n + 1) (fun _ -> -.log (1.0 -. Prng.float rng 1.0)) in
  let total = Array.fold_left ( +. ) 0.0 gaps in
  let t = ref 0.0 in
  Array.init n (fun i ->
      t := !t +. gaps.(i);
      { at = duration *. !t /. total; req = wire_request rng })

(* Everything child [index] of a run sends. Each child splits its own
   generator from the seed. [seconds] is the child's share of the run:
   it sets the length of the wire schedules. *)
let draw workload ~seed ~index ~seconds =
  let root = Prng.create (Int64.of_int seed) in
  for _ = 1 to index do
    ignore (Prng.split root)
  done;
  let rng = Prng.split root in
  match workload with
  | Spec.Tpch_adhoc | Spec.Tpch_warm ->
    Closed { passes = Array.init Spec.drawn_passes (fun _ -> shuffled rng tpch); distinct = tpch }
  | Spec.Giant_compile ->
    let distinct = List.map (giant rng) Spec.giant_sizes in
    Closed
      {
        passes =
          Array.init Spec.drawn_passes (fun _ -> List.map (giant rng) (shuffled rng Spec.giant_sizes));
        distinct;
      }
  | Spec.Wire_meta ->
    let distinct = meta @ [ meta1_variant rng; meta4_variant rng ] in
    let capacity = Array.init Spec.wire_capacity_requests (fun _ -> wire_request rng) in
    let schedules =
      Array.mapi
        (fun i rate -> schedule rng ~rate ~duration:(Spec.wire_time_shares.(i) *. seconds))
        Spec.wire_rates
    in
    Open { capacity; schedules; distinct }

(* The closed loop's source of passes: pass 0, 1, ... and around again. *)
let cycle passes =
  let next = ref 0 in
  fun () ->
    let p = passes.(!next mod Array.length passes) in
    incr next;
    p

(* Fingerprint of everything a child draws, in the order it draws it. *)
let digest t =
  let b = Buffer.create 65536 in
  let req r =
    Buffer.add_string b r.key;
    Buffer.add_string b (Digest.string r.sql)
  in
  (match t with
  | Closed c ->
    List.iter req c.distinct;
    Array.iter (List.iter req) c.passes
  | Open o ->
    List.iter req o.distinct;
    Array.iter req o.capacity;
    Array.iter
      (Array.iter (fun a ->
           Printf.bprintf b "%.9f" a.at;
           req a.req))
      o.schedules);
  Digest.string (Buffer.contents b)

(* A run's digest: its children's, in child order. *)
let run_digest child_digests = Digest.to_hex (Digest.string (String.concat "" child_digests))
