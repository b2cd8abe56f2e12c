module A = Aeq_mem.Arena

(* Build phase: each worker appends to its own chain, so an insert
   takes no lock; one location per worker, written only by the domain
   running that tid. [link] reads every chain single-threaded, ordered
   after the inserts by the pool barrier that ends the build pipeline,
   and probes read the directory it writes after that same barrier
   (uninstrumented). *)
let () = Aeq_race.declare "rt.ht.chain" Aeq_race.Single_writer

(* one worker's chain, in insertion order, linked through the entries'
   [next] words *)
type chain = { mutable first : A.ptr; mutable last : A.ptr; mutable n : int }

type t = {
  arena : A.t;
  chains : chain array; (* per thread *)
  locs : Aeq_race.location array; (* per thread *)
  payload_bytes : int;
  mutable dir : A.ptr; (* [mask + 1] i64 bucket heads; null until [link] *)
  mutable mask : int;
}

let key_offset = 8

let payload_offset = 16

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create arena ~n_threads ~payload_bytes =
  let n_threads = Stdlib.max 1 n_threads in
  {
    arena;
    chains = Array.init n_threads (fun _ -> { first = A.null; last = A.null; n = 0 });
    locs = Array.init n_threads (fun _ -> Aeq_race.locate "rt.ht.chain");
    payload_bytes;
    dir = A.null;
    mask = 0;
  }

(* entry words through the chunk primitives: no [int64] is boxed *)
let[@inline] get t p = A.chunk_get_i64 (A.chunk t.arena p) (A.chunk_offset p)

let[@inline] set t p v = A.chunk_set_i64 (A.chunk t.arena p) (A.chunk_offset p) v

let[@inline] next t e = Int64.to_int (get t e)

(* a key is read where the caller keeps it, so it is never boxed *)
external key_at : Bytes.t -> int -> int64 = "%caml_bytes_get64"

(* splitmix-style finalizer *)
let[@inline] hash key =
  let h = Int64.mul (Int64.logxor key (Int64.shift_right_logical key 33)) 0xFF51AFD7ED558CCDL in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 33)) 0xC4CEB9FE1A85EC53L in
  Int64.to_int (Int64.logxor h (Int64.shift_right_logical h 33)) land max_int

let insert t ~tid ~allocator keys off =
  (* [alloc] hands out zeroed bytes: the new entry's [next] is null *)
  let entry = A.alloc allocator (payload_offset + t.payload_bytes) in
  set t (entry + key_offset) (key_at keys off);
  let c = t.chains.(tid) in
  Aeq_race.write ~site:"ht.insert" t.locs.(tid);
  if c.last = A.null then c.first <- entry else set t c.last (Int64.of_int entry);
  c.last <- entry;
  c.n <- c.n + 1;
  entry + payload_offset

let size t = Array.fold_left (fun acc c -> acc + c.n) 0 t.chains

let linked t = t.dir <> A.null

(* Each chain is walked oldest first and every entry pushed on its
   bucket's head, so a bucket lists one worker's entries newest first,
   as if each insert had pushed on its bucket's head itself. *)
let link t ~allocator =
  if linked t then invalid_arg "Hash_table.link: already linked";
  let n = next_pow2 (Stdlib.max 16 (size t)) in
  t.dir <- A.alloc allocator (8 * n);
  t.mask <- n - 1;
  Array.iteri
    (fun tid c ->
      Aeq_race.read ~site:"ht.link" t.locs.(tid);
      let e = ref c.first in
      while !e <> A.null do
        let entry = !e in
        e := next t entry;
        let head = t.dir + (8 * (hash (get t (entry + key_offset)) land t.mask)) in
        set t entry (get t head);
        set t head (Int64.of_int entry)
      done)
    t.chains

let n_buckets t = if linked t then t.mask + 1 else 0

let lookup t keys off =
  let key = key_at keys off in
  (* an unlinked table has no directory: the null read raises *)
  let e = ref (next t (t.dir + (8 * (hash key land t.mask)))) in
  while !e <> A.null && get t (!e + key_offset) <> key do
    e := next t !e
  done;
  !e

let next_match t ~entry =
  let key = get t (entry + key_offset) in
  let e = ref (next t entry) in
  while !e <> A.null && get t (!e + key_offset) <> key do
    e := next t !e
  done;
  !e
