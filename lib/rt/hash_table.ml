module A = Aeq_mem.Arena

(* bucket heads are written under their stripe lock during the build
   phase; probe-phase reads are lock-free, ordered after every insert
   by the pool barrier between pipelines (so only inserts are
   instrumented — a location per stripe, since stripes guard disjoint
   bucket subsets) *)
let () = Aeq_race.declare "rt.ht.buckets" (Aeq_race.Lock "rt.ht.stripe")

type t = {
  arena : A.t;
  buckets : A.ptr; (* [mask + 1] i64 bucket heads, in the lease *)
  mask : int;
  locks : Aeq_race.Lock.t array;
  locs : Aeq_race.location array; (* one per stripe *)
  payload_bytes : int;
  count : int Atomic.t;
}

let payload_offset = 16

let n_stripes = 64

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 16

let create arena ~allocator ~expected_entries ~payload_bytes =
  let n = next_pow2 (Stdlib.max 16 (2 * expected_entries)) in
  {
    arena;
    (* [alloc] hands out zeroed bytes: every head starts null *)
    buckets = A.alloc allocator (8 * n);
    mask = n - 1;
    locks = Array.init n_stripes (fun _ -> Aeq_race.Lock.create "rt.ht.stripe");
    locs = Array.init n_stripes (fun _ -> Aeq_race.locate "rt.ht.buckets");
    payload_bytes;
    count = Atomic.make 0;
  }

(* splitmix-style finalizer *)
let hash key =
  let h = Int64.mul (Int64.logxor key (Int64.shift_right_logical key 33)) 0xFF51AFD7ED558CCDL in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 33)) 0xC4CEB9FE1A85EC53L in
  Int64.to_int (Int64.logxor h (Int64.shift_right_logical h 33)) land max_int

let insert t ~allocator ~key =
  let entry = A.alloc allocator (payload_offset + t.payload_bytes) in
  A.set_i64 t.arena (entry + 8) key;
  let b = hash key land t.mask in
  let s = b land (n_stripes - 1) in
  let head = t.buckets + (8 * b) in
  let stripe = t.locks.(s) in
  Aeq_race.Lock.lock stripe;
  Aeq_race.write ~site:"ht.insert" t.locs.(s);
  A.set_i64 t.arena entry (A.get_i64 t.arena head);
  A.set_i64 t.arena head (Int64.of_int entry);
  Aeq_race.Lock.unlock stripe;
  Atomic.incr t.count;
  entry + payload_offset

let rec walk t key e =
  if e = A.null then A.null
  else if Int64.equal (A.get_i64 t.arena (e + 8)) key then e
  else walk t key (Int64.to_int (A.get_i64 t.arena e))

let lookup t ~key =
  walk t key (Int64.to_int (A.get_i64 t.arena (t.buckets + (8 * (hash key land t.mask)))))

let next_match t ~entry =
  walk t (A.get_i64 t.arena (entry + 8)) (Int64.to_int (A.get_i64 t.arena entry))

let size t = Atomic.get t.count
