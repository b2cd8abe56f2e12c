module A = Aeq_mem.Arena

type acc_kind = Sum | Count | Min | Max

(* Phase 1, while the pipeline runs: one thread's groups, a chained
   hash table in the execution's lease. Entry = [next][k1][k2][acc0]
   [acc1]..., with the [k2] word only when the groups have two keys.
   The directory is [mask + 1] i64 bucket heads from the thread's
   allocator: [initial_buckets] on the first group, doubled while the
   linked entries outnumber the buckets, up to [max_buckets]. A chain
   holds at most [chain_bound] entries: a new group whose chain is
   full first moves that chain, every entry older than it, onto
   [overflow], linked through the entries' own [next] words. A group
   seen again after its entry overflowed starts a second entry; the
   merge combines the two. A directory the table outgrows becomes the
   thread's next entries: new entries are carved from it before the
   allocator is asked, so the lease holds no dead directory. *)
type table = {
  mutable dir : A.ptr; (* null until the first group *)
  mutable dir_chunk : A.chunk; (* [dir]'s chunk and offset: a head is one read *)
  mutable dir_off : int;
  mutable mask : int;
  mutable linked : int; (* entries in [dir]'s chains *)
  mutable overflow : A.ptr; (* entries moved out of full chains *)
  mutable entries : int; (* [linked] and those on [overflow] *)
  mutable spare : A.ptr; (* the unused rest of the last outgrown directory *)
  mutable spare_end : A.ptr;
  mutable alloc : A.allocator option;
      (* the allocator the directory came from; [merge] takes its
         directories from it *)
}

type t = {
  arena : A.t;
  key_arity : int;
  accs : acc_kind array;
  row_offset : int; (* byte offset of the accumulators in an entry *)
  entry_bytes : int;
  tables : table array; (* per thread *)
  mutable groups : A.ptr array;
      (* after [merge], per partition: its distinct groups, linked
         through [next] *)
  mutable n_groups : int;
}

let initial_buckets = 64

(* a directory of 8-byte heads fills one arena chunk at most *)
let max_buckets = A.default_chunk_size / 8

let chain_bound = 4

(* [merge] deals the entries into partitions of about this many *)
let partition_entries = 1024

let no_chunk : A.chunk = Bigarray.Array1.create Bigarray.char Bigarray.c_layout 0

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
          {
            dir = A.null;
            dir_chunk = no_chunk;
            dir_off = 0;
            mask = -1;
            linked = 0;
            overflow = A.null;
            entries = 0;
            spare = A.null;
            spare_end = A.null;
            alloc = None;
          });
    groups = [||];
    n_groups = 0;
  }

(* Words are read and written through the chunk primitives, so no
   [int64] is boxed. An entry or a directory never crosses a chunk:
   each is looked up once, and its words are read at offsets from
   there. *)
let[@inline] get c o = A.chunk_get_i64 c o

let[@inline] set c o v = A.chunk_set_i64 c o v

let[@inline] get_ptr c o = Int64.to_int (A.chunk_get_i64 c o)

let[@inline] set_ptr c o p = A.chunk_set_i64 c o (Int64.of_int p)

(* keys are read where the caller keeps them, so they are never boxed *)
external key_at : Bytes.t -> int -> int64 = "%caml_bytes_get64"

(* the join table's splitmix64 finalizer over the mixed keys, written
   out here so that it inlines: a call across modules would box its
   argument. A directory indexes with the low bits, [merge]'s
   partitions with bits 32 and up. *)
let[@inline] hash k1 k2 =
  let key = Int64.logxor k1 (Int64.mul k2 0x9E3779B97F4A7C15L) in
  let h = Int64.mul (Int64.logxor key (Int64.shift_right_logical key 33)) 0xFF51AFD7ED558CCDL in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 33)) 0xC4CEB9FE1A85EC53L in
  Int64.to_int (Int64.logxor h (Int64.shift_right_logical h 33)) land max_int

let two_keys t = t.key_arity >= 2

(* an entry without a [k2] word hashes as [k2 = 0], as [get_group]
   does for fewer than two keys *)
let[@inline] entry_hash t c o =
  if two_keys t then hash (get c (o + 8)) (get c (o + 16)) else hash (get c (o + 8)) 0L

(* Push every entry of the chain from [e] onto its bucket in [dir]. *)
let relink_chain t e ~dir ~mask =
  let dc = A.chunk t.arena dir and doff = A.chunk_offset dir in
  let e = ref e in
  while !e <> A.null do
    let c = A.chunk t.arena !e and o = A.chunk_offset !e in
    let nx = get_ptr c o and head = doff + (8 * (entry_hash t c o land mask)) in
    set c o (get dc head);
    set_ptr dc head !e;
    e := nx
  done

let set_dir t tbl dir ~mask =
  tbl.dir <- dir;
  tbl.dir_chunk <- (if dir = A.null then no_chunk else A.chunk t.arena dir);
  tbl.dir_off <- A.chunk_offset dir;
  tbl.mask <- mask

let grow t tbl ~allocator =
  let old = tbl.dir and old_chunk = tbl.dir_chunk and old_off = tbl.dir_off in
  let old_mask = tbl.mask in
  let n = if old = A.null then initial_buckets else 2 * (old_mask + 1) in
  set_dir t tbl (A.alloc allocator (8 * n)) ~mask:(n - 1);
  tbl.alloc <- Some allocator;
  for b = 0 to old_mask do
    relink_chain t (get_ptr old_chunk (old_off + (8 * b))) ~dir:tbl.dir ~mask:tbl.mask
  done;
  (* the old directory, larger than what is left of the one before
     it, is where the next entries go *)
  if old <> A.null then begin
    tbl.spare <- old;
    tbl.spare_end <- old + (8 * (old_mask + 1))
  end

(* A new entry's bytes: from the outgrown directory while it has room
   (every word of an entry is written before it is read), else from
   the thread's allocator. *)
let new_entry t tbl ~allocator =
  let e = tbl.spare in
  if e + t.entry_bytes <= tbl.spare_end then begin
    tbl.spare <- e + t.entry_bytes;
    e
  end
  else A.alloc allocator t.entry_bytes

(* A miss: [last] is the tail of the [len]-entry chain [h] hashes to. *)
let add_group t tbl ~allocator keys ~k1 ~k2 h ~last ~len =
  if tbl.linked > tbl.mask && tbl.mask < max_buckets - 1 then grow t tbl ~allocator
  else if len >= chain_bound then begin
    let head = tbl.dir_off + (8 * (h land tbl.mask)) in
    set_ptr (A.chunk t.arena last) (A.chunk_offset last) tbl.overflow;
    tbl.overflow <- get_ptr tbl.dir_chunk head;
    set tbl.dir_chunk head 0L;
    tbl.linked <- tbl.linked - len
  end;
  let e = new_entry t tbl ~allocator in
  let c = A.chunk t.arena e and o = A.chunk_offset e in
  set c (o + 8) (key_at keys k1);
  if two_keys t then set c (o + 16) (key_at keys k2);
  for i = 0 to Array.length t.accs - 1 do
    set c (o + t.row_offset + (8 * i)) (init_value t.accs.(i))
  done;
  let head = tbl.dir_off + (8 * (h land tbl.mask)) in
  set c o (get tbl.dir_chunk head);
  set_ptr tbl.dir_chunk head e;
  tbl.linked <- tbl.linked + 1;
  tbl.entries <- tbl.entries + 1;
  e + t.row_offset

let get_group t ~tid ~allocator keys ~k1:k1_off ~k2:k2_off =
  let tbl = t.tables.(tid) in
  let two = two_keys t in
  let k1 = key_at keys k1_off and k2 = if two then key_at keys k2_off else 0L in
  let h = hash k1 k2 in
  if tbl.dir = A.null then grow t tbl ~allocator;
  let e = ref (get_ptr tbl.dir_chunk (tbl.dir_off + (8 * (h land tbl.mask)))) in
  let found = ref A.null and last = ref A.null and len = ref 0 in
  while !e <> A.null do
    let c = A.chunk t.arena !e and o = A.chunk_offset !e in
    if get c (o + 8) = k1 && ((not two) || get c (o + 16) = k2) then begin
      found := !e;
      e := A.null
    end
    else begin
      last := !e;
      incr len;
      e := get_ptr c o
    end
  done;
  if !found <> A.null then !found + t.row_offset
  else add_group t tbl ~allocator keys ~k1:k1_off ~k2:k2_off h ~last:!last ~len:!len

(* Phase 2, at the barrier. *)

(* fold the accumulators at [from] into those at [into] *)
let combine t ic io fc fo =
  for i = 0 to Array.length t.accs - 1 do
    let o = 8 * i in
    let a = get ic (io + o) and b = get fc (fo + o) in
    set ic (io + o)
      (match t.accs.(i) with
      | Sum | Count -> Int64.add a b
      | Min -> if Int64.compare b a < 0 then b else a
      | Max -> if Int64.compare b a > 0 then b else a)
  done

(* Link every entry of the chain from [e] into [dir], folding it into
   the entry already there for its keys, if any. *)
let combine_chain t e ~dir ~mask =
  let dc = A.chunk t.arena dir and doff = A.chunk_offset dir in
  let two = two_keys t and ro = t.row_offset in
  let e = ref e in
  while !e <> A.null do
    let c = A.chunk t.arena !e and o = A.chunk_offset !e in
    let nx = get_ptr c o and head = doff + (8 * (entry_hash t c o land mask)) in
    let k1 = get c (o + 8) and k2 = if two then get c (o + 16) else 0L in
    let x = ref (get_ptr dc head) and merged = ref false in
    while !x <> A.null do
      let xc = A.chunk t.arena !x and xo = A.chunk_offset !x in
      if get xc (xo + 8) = k1 && ((not two) || get xc (xo + 16) = k2) then begin
        combine t xc (xo + ro) c (o + ro);
        merged := true;
        x := A.null
      end
      else x := get_ptr xc xo
    done;
    if not !merged then begin
      set c o (get dc head);
      set_ptr dc head !e
    end;
    e := nx
  done

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let sequential f = f ~tid:0

let merge ?run t =
  let tables = t.tables in
  let n_src = Array.length tables in
  let total = Array.fold_left (fun n tbl -> n + tbl.entries) 0 tables in
  let n_parts = next_pow2 ((total + partition_entries - 1) / partition_entries) in
  let run, parallel =
    match run with Some r when n_parts > 1 -> (r, true) | _ -> (sequential, false)
  in
  let allocator = Array.find_map (fun tbl -> tbl.alloc) tables in
  (* [f ~tid i] for every [i < n], spread over the participants
     whose [tid] is below [tids] *)
  let each n ~tids f =
    let cursor = Atomic.make 0 in
    run (fun ~tid ->
        let continue_ = ref (tid < tids) in
        while !continue_ do
          let i = Atomic.fetch_and_add cursor 1 in
          if i >= n then continue_ := false else f ~tid i
        done)
  in
  (* deal: [heads.(s * n_parts + p)] lists thread [s]'s entries of
     partition [p]; a participant deals whole tables *)
  let heads = Array.make (n_src * n_parts) A.null in
  let sizes = Array.make (n_src * n_parts) 0 in
  let deal_chain base e =
    let e = ref e in
    while !e <> A.null do
      let c = A.chunk t.arena !e and o = A.chunk_offset !e in
      let nx = get_ptr c o in
      let i = base + ((entry_hash t c o lsr 32) land (n_parts - 1)) in
      set_ptr c o heads.(i);
      heads.(i) <- !e;
      sizes.(i) <- sizes.(i) + 1;
      e := nx
    done
  in
  each n_src ~tids:n_src (fun ~tid:_ s ->
      let tbl = tables.(s) in
      for b = 0 to tbl.mask do
        deal_chain (s * n_parts) (get_ptr tbl.dir_chunk (tbl.dir_off + (8 * b)))
      done;
      deal_chain (s * n_parts) tbl.overflow;
      set_dir t tbl A.null ~mask:(-1);
      tbl.linked <- 0;
      tbl.overflow <- A.null;
      tbl.entries <- 0;
      tbl.spare <- A.null;
      tbl.spare_end <- A.null);
  (* combine: one directory per participant, sized to the largest
     partition and left empty after each *)
  let largest = ref 0 in
  for p = 0 to n_parts - 1 do
    let n = ref 0 in
    for s = 0 to n_src - 1 do
      n := !n + sizes.((s * n_parts) + p)
    done;
    largest := Stdlib.max !largest !n
  done;
  let mask = next_pow2 (Stdlib.max 16 !largest) - 1 in
  let dirs =
    match allocator with
    | None -> [||]
    | Some a ->
      let n_dirs = if parallel then Stdlib.min n_src n_parts else 1 in
      Array.init n_dirs (fun _ -> A.alloc a (8 * (mask + 1)))
  in
  let groups = Array.make n_parts A.null and counts = Array.make n_parts 0 in
  each n_parts ~tids:(Array.length dirs) (fun ~tid p ->
      let dir = dirs.(tid) in
      for s = 0 to n_src - 1 do
        combine_chain t heads.((s * n_parts) + p) ~dir ~mask
      done;
      (* collect the partition's groups and empty the directory *)
      let dc = A.chunk t.arena dir and doff = A.chunk_offset dir in
      let g = ref A.null and n = ref 0 in
      for b = 0 to mask do
        let e = ref (get_ptr dc (doff + (8 * b))) in
        while !e <> A.null do
          let c = A.chunk t.arena !e and o = A.chunk_offset !e in
          let nx = get_ptr c o in
          set_ptr c o !g;
          g := !e;
          incr n;
          e := nx
        done;
        set dc (doff + (8 * b)) 0L
      done;
      groups.(p) <- !g;
      counts.(p) <- !n);
  t.groups <- groups;
  t.n_groups <- Array.fold_left ( + ) 0 counts

let n_groups t = t.n_groups

let materialize t ~allocator =
  let n = t.n_groups in
  let n_cols = t.key_arity + Array.length t.accs in
  let cols = Array.init n_cols (fun _ -> A.alloc allocator (8 * Stdlib.max 1 n)) in
  (* column c is entry word c + 1 for the keys, then the accumulators *)
  let src_offset c =
    if c < t.key_arity then 8 * (c + 1) else t.row_offset + (8 * (c - t.key_arity))
  in
  let dst = Array.map (A.chunk t.arena) cols and dst_off = Array.map A.chunk_offset cols in
  let i = ref 0 in
  Array.iter
    (fun g ->
      let e = ref g in
      while !e <> A.null do
        let c = A.chunk t.arena !e and o = A.chunk_offset !e in
        for k = 0 to n_cols - 1 do
          set dst.(k) (dst_off.(k) + (8 * !i)) (get c (o + src_offset k))
        done;
        incr i;
        e := get_ptr c o
      done)
    t.groups;
  (n, cols)
