module A = Aeq_mem.Arena

type acc_kind = Sum | Count | Min | Max

(* One thread's groups: a chained hash table in the execution's lease.
   Entry = [next][k1][k2][acc0][acc1]..., with the [k2] word only when
   the groups have two keys; the directory is [mask + 1]
   i64 bucket heads, taken from the thread's allocator on its first
   group and doubled when the groups outnumber the buckets (the old
   directory stays in the lease until release). *)
type table = {
  mutable dir : A.ptr; (* null until the first group *)
  mutable mask : int;
  mutable count : int;
  mutable alloc : A.allocator option;
      (* the allocator the directory came from; [merge] grows with it *)
}

type t = {
  arena : A.t;
  key_arity : int;
  accs : acc_kind array;
  row_offset : int; (* byte offset of the accumulators in an entry *)
  entry_bytes : int;
  tables : table array; (* per thread *)
}

let initial_buckets = 64

let init_value = function
  | Sum | Count -> 0L
  | Min -> Int64.max_int
  | Max -> Int64.min_int

let create arena ~n_threads ~key_arity ~accs =
  let accs = Array.of_list accs in
  let row_offset = if key_arity >= 2 then 24 else 16 in
  {
    arena;
    key_arity;
    accs;
    row_offset;
    entry_bytes = row_offset + (8 * Array.length accs);
    tables =
      Array.init (Stdlib.max 1 n_threads) (fun _ ->
          { dir = A.null; mask = -1; count = 0; alloc = None });
  }

(* entry words through the chunk primitives: no [int64] is boxed *)
let[@inline] get t p = A.chunk_get_i64 (A.chunk t.arena p) (A.chunk_offset p)

let[@inline] set t p v = A.chunk_set_i64 (A.chunk t.arena p) (A.chunk_offset p) v

(* the join table's splitmix64 finalizer over the mixed keys, written
   out here so that it inlines: a call across modules would box its
   argument *)
let[@inline] hash k1 k2 =
  let key = Int64.logxor k1 (Int64.mul k2 0x9E3779B97F4A7C15L) in
  let h = Int64.mul (Int64.logxor key (Int64.shift_right_logical key 33)) 0xFF51AFD7ED558CCDL in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 33)) 0xC4CEB9FE1A85EC53L in
  Int64.to_int (Int64.logxor h (Int64.shift_right_logical h 33)) land max_int

let[@inline] next t e = Int64.to_int (get t e)

let two_keys t = t.key_arity >= 2

(* an entry without a [k2] word was made for [k2 = 0], which is what
   every caller passes for fewer than two keys *)
let entry_hash t e =
  if two_keys t then hash (get t (e + 8)) (get t (e + 16)) else hash (get t (e + 8)) 0L

let link t tbl e h =
  let head = tbl.dir + (8 * (h land tbl.mask)) in
  set t e (get t head);
  set t head (Int64.of_int e)

(* [f] may relink the entry it is given *)
let iter_entries t ~dir ~mask f =
  for b = 0 to mask do
    let rec walk e =
      if e <> A.null then begin
        let nx = next t e in
        f e;
        walk nx
      end
    in
    walk (next t (dir + (8 * b)))
  done

let[@inline] find t tbl ~k1 ~k2 h =
  if tbl.dir = A.null then A.null
  else begin
    let e = ref (next t (tbl.dir + (8 * (h land tbl.mask)))) in
    while
      !e <> A.null && not (get t (!e + 8) = k1 && ((not (two_keys t)) || get t (!e + 16) = k2))
    do
      e := next t !e
    done;
    !e
  end

let grow_if_full t tbl ~allocator =
  if tbl.count > tbl.mask then begin
    let dir = tbl.dir and mask = tbl.mask in
    let n = Stdlib.max initial_buckets (2 * (mask + 1)) in
    tbl.dir <- A.alloc allocator (8 * n);
    tbl.mask <- n - 1;
    tbl.alloc <- Some allocator;
    iter_entries t ~dir ~mask (fun e -> link t tbl e (entry_hash t e))
  end

let get_group t ~tid ~allocator ~k1 ~k2 =
  let tbl = t.tables.(tid) in
  let h = if two_keys t then hash k1 k2 else hash k1 0L in
  let e = find t tbl ~k1 ~k2 h in
  if e <> A.null then e + t.row_offset
  else begin
    grow_if_full t tbl ~allocator;
    let e = A.alloc allocator t.entry_bytes in
    set t (e + 8) k1;
    if two_keys t then set t (e + 16) k2;
    for i = 0 to Array.length t.accs - 1 do
      set t (e + t.row_offset + (8 * i)) (init_value t.accs.(i))
    done;
    link t tbl e h;
    tbl.count <- tbl.count + 1;
    e + t.row_offset
  end

let combine t ~into ~from =
  Array.iteri
    (fun i kind ->
      let o = 8 * i in
      let a = get t (into + o) and b = get t (from + o) in
      let r =
        match kind with
        | Sum | Count -> Int64.add a b
        | Min -> if Int64.compare b a < 0 then b else a
        | Max -> if Int64.compare b a > 0 then b else a
      in
      set t (into + o) r)
    t.accs

let merge t =
  let tables = t.tables in
  (* thread 0 may have seen no tuple: fold into the first thread that
     did, whose allocator can grow the directory *)
  (match Array.find_index (fun tbl -> tbl.dir <> A.null) tables with
  | Some i when i > 0 ->
    let m = tables.(i) in
    tables.(i) <- tables.(0);
    tables.(0) <- m
  | _ -> ());
  let main = tables.(0) in
  for tid = 1 to Array.length tables - 1 do
    let src = tables.(tid) in
    iter_entries t ~dir:src.dir ~mask:src.mask (fun e ->
        let h = entry_hash t e in
        let existing =
          find t main ~k1:(get t (e + 8)) ~k2:(if two_keys t then get t (e + 16) else 0L) h
        in
        if existing <> A.null then
          combine t ~into:(existing + t.row_offset) ~from:(e + t.row_offset)
        else begin
          Option.iter (fun allocator -> grow_if_full t main ~allocator) main.alloc;
          link t main e h;
          main.count <- main.count + 1
        end);
    src.dir <- A.null;
    src.mask <- -1;
    src.count <- 0
  done

let n_groups t = t.tables.(0).count

let materialize t ~allocator =
  let main = t.tables.(0) in
  let n = main.count in
  let n_cols = t.key_arity + Array.length t.accs in
  let cols = Array.init n_cols (fun _ -> A.alloc allocator (8 * Stdlib.max 1 n)) in
  (* column c is entry word c + 1 for the keys, then the accumulators *)
  let src_offset c =
    if c < t.key_arity then 8 * (c + 1) else t.row_offset + (8 * (c - t.key_arity))
  in
  let i = ref 0 in
  iter_entries t ~dir:main.dir ~mask:main.mask (fun e ->
      for c = 0 to n_cols - 1 do
        set t (cols.(c) + (8 * !i)) (get t (e + src_offset c))
      done;
      incr i);
  (n, cols)
