exception Stale_allocator

(* guarded-by declarations: the race detector cross-checks every
   instrumented access below against these (see lib/race) *)
let () =
  Aeq_race.declare "arena.chunk_table" (Aeq_race.Lock "arena.lock");
  Aeq_race.declare "arena.leases" (Aeq_race.Lock "arena.lock");
  Aeq_race.declare "arena.lease.slots" (Aeq_race.Lock "arena.lock");
  Aeq_race.declare "arena.spare_pool" (Aeq_race.Lock "arena.lock");
  Aeq_race.declare "arena.counters" Aeq_race.Atomic;
  Aeq_race.declare "arena.generation" Aeq_race.Atomic;
  Aeq_race.declare "arena.lease.meters" Aeq_race.Atomic;
  Aeq_race.declare "arena.allocator" Aeq_race.Single_writer

(* The chunk table is two-level: slots below the permanent base hold
   loaded tables (the catalog's lease, never released), slots above are
   scratch leased to one query at a time. A released slot's index goes
   to [free_slots] for the next lease, so the table never grows past
   (base + peak-concurrent-scratch) — the replacement for the old
   serialize-then-truncate reclamation that forced single-writer
   execution.

   A released scratch chunk goes to [spares], a pool keyed by exact
   size: the next grab of that size zero-fills and reuses it instead of
   allocating, so a query's scratch never turns into garbage for the
   major GC. Spares are not leased memory — [resident], [scratch] and
   [n_live] count leased chunks only. The pool never holds more than
   the highest scratch residency seen ([peak_scratch]). *)
type chunk = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  chunk_size : int;
  chunks : chunk array; (* fixed-capacity table; slots filled under lock *)
  mutable n_chunks : int; (* slot high-water mark *)
  mutable free_slots : int list; (* released scratch slots, recyclable *)
  mutable n_live : int; (* slots currently holding memory *)
  resident : int Atomic.t;
      (* running total of live chunk bytes; read lock-free by the
         resident-bytes gauge *)
  generation : int Atomic.t; (* bumped by [reset]; staleness fences *)
  lock : Aeq_race.Lock.t;
  mutable base : lease option; (* permanent lease for loaded tables *)
  mutable live_leases : int; (* outstanding scratch leases; guarded by lock *)
  scratch : int Atomic.t;
      (* bytes resident in scratch chunks only (excludes the base
         lease's loaded tables) *)
  mutable peak_scratch : int; (* highest [scratch] seen; guarded by lock *)
  spares : (int, chunk list) Hashtbl.t;
      (* released scratch chunks by exact size; guarded by lock *)
  spare : int Atomic.t; (* bytes in [spares]; read lock-free by the gauge *)
  table_loc : Aeq_race.location;
  leases_loc : Aeq_race.location;
  spares_loc : Aeq_race.location;
}

and lease = {
  ls_arena : t;
  ls_gen : int; (* arena generation at lease time *)
  ls_scratch : bool; (* false only for the permanent base lease *)
  mutable ls_slots : int list; (* owned chunk slots; guarded by arena lock *)
  ls_used : int Atomic.t; (* bytes handed out — the per-query budget meter *)
  ls_stale : bool Atomic.t; (* set on release/reset; allocators fail fast *)
  ls_loc : Aeq_race.location;
}

type ptr = int

type allocator = {
  lease : lease;
  mutable chunk : int; (* index of the chunk we bump into *)
  mutable cursor : int;
  mutable limit : int;
}

let null = 0

let offset_bits = 32

let offset_mask = (1 lsl offset_bits) - 1

let encode chunk off = (chunk lsl offset_bits) lor off

let max_chunks = 1 lsl 16

(* the memory of an empty slot: every access to it is out of bounds *)
let no_chunk : chunk = Bigarray.Array1.create Bigarray.char Bigarray.c_layout 0

let chunk_length = Bigarray.Array1.dim

let zero_fill (c : chunk) = Bigarray.Array1.fill c '\000'

let new_chunk size =
  let c = Bigarray.Array1.create Bigarray.char Bigarray.c_layout size in
  zero_fill c;
  c

let make_lease ~scratch t =
  {
    ls_arena = t;
    ls_gen = Atomic.get t.generation;
    ls_scratch = scratch;
    ls_slots = [];
    ls_used = Atomic.make 0;
    ls_stale = Atomic.make false;
    ls_loc = Aeq_race.locate "arena.lease.slots";
  }

(* Slot 0 stays empty: pointer 0 is null, so a null dereference
   raises like any wild pointer. *)
let create ?(chunk_size = 1 lsl 16) () =
  let t =
    {
      chunk_size;
      chunks = Array.make max_chunks no_chunk;
      n_chunks = 1;
      free_slots = [];
      n_live = 0;
      resident = Atomic.make 0;
      generation = Atomic.make 0;
      lock = Aeq_race.Lock.create "arena.lock";
      base = None;
      live_leases = 0;
      scratch = Atomic.make 0;
      peak_scratch = 0;
      spares = Hashtbl.create 16;
      spare = Atomic.make 0;
      table_loc = Aeq_race.locate "arena.chunk_table";
      leases_loc = Aeq_race.locate "arena.leases";
      spares_loc = Aeq_race.locate "arena.spare_pool";
    }
  in
  t.base <- Some (make_lease ~scratch:false t);
  t

let base_lease t =
  match t.base with Some l -> l | None -> assert false

let lease t =
  (* fault fires before the lease exists, so an injected failure here
     cannot leak a claim *)
  Aeq_util.Probe.hit "arena.lease";
  let l = make_lease ~scratch:true t in
  Aeq_race.Lock.with_ t.lock (fun () ->
      Aeq_race.write ~site:"arena.lease" t.leases_loc;
      t.live_leases <- t.live_leases + 1);
  l

let lease_used l = Atomic.get l.ls_used

let lease_stale l = Atomic.get l.ls_stale

(* Spare-pool helpers; the caller holds [t.lock]. *)

let take_spare t size =
  match Hashtbl.find_opt t.spares size with
  | Some (b :: rest) ->
    (match rest with
    | [] -> Hashtbl.remove t.spares size
    | _ -> Hashtbl.replace t.spares size rest);
    ignore (Atomic.fetch_and_add t.spare (-size));
    Some b
  | Some [] | None -> None

(* the pool's bound, for a released chunk of [size] bytes *)
let pool_admits t size = Atomic.get t.spare + size <= t.peak_scratch

(* Take a slot for [lease] and install a chunk of at least [size]
   bytes; returns the slot index. Slots are recycled indices, and the
   memory is either a fresh zeroed chunk or a spare of exactly
   [size] bytes zero-filled here, under the lock, before the slot is
   handed out — so a recycled chunk carries no bytes from the query
   that released it. A pointer into a chunk can only reach another
   thread through a synchronising structure (the pool or a locked hash
   table), which orders the slot write before any access. *)
let lease_chunk ls size =
  (* simulated allocation failure: growing the arena is where a real
     OOM would strike *)
  Aeq_util.Probe.hit "arena.alloc";
  let t = ls.ls_arena in
  let slot =
    Aeq_race.Lock.with_ t.lock (fun () ->
        (* staleness re-checked under the SAME lock that [release]
           stales under: a grab that raced a concurrent release used
           to slip a fresh slot onto the already-reclaimed lease — a
           permanent leak, reachable whenever a peer worker's failure
           released the lease while this worker sat between [alloc]'s
           entry check and here *)
        if Atomic.get ls.ls_stale || ls.ls_gen <> Atomic.get t.generation then
          raise Stale_allocator;
        Aeq_race.write ~site:"arena.lease_chunk" t.table_loc;
        Aeq_race.write ~site:"arena.lease_chunk" ls.ls_loc;
        Aeq_race.write ~site:"arena.lease_chunk" t.spares_loc;
        let slot =
          match t.free_slots with
          | s :: rest ->
            t.free_slots <- rest;
            s
          | [] ->
            let n = t.n_chunks in
            if n >= max_chunks then invalid_arg "Arena: chunk table exhausted";
            t.n_chunks <- n + 1;
            n
        in
        t.chunks.(slot) <-
          (match take_spare t size with Some c -> zero_fill c; c | None -> new_chunk size);
        t.n_live <- t.n_live + 1;
        if ls.ls_scratch then begin
          let s = Atomic.fetch_and_add t.scratch size + size in
          if s > t.peak_scratch then t.peak_scratch <- s
        end;
        ls.ls_slots <- slot :: ls.ls_slots;
        slot)
  in
  ignore (Atomic.fetch_and_add t.resident size);
  slot

(* Return every owned slot to the free list and every scratch chunk
   the pool admits to [spares]. Idempotent; a no-op if the arena was
   [reset] since the lease was taken (the slots are already recycled).
   Must not run while the lease's allocators are still in use — the
   driver releases only after the pool barrier. *)
let do_release ls =
  let t = ls.ls_arena in
  Aeq_race.Lock.with_ t.lock (fun () ->
      if (not (Atomic.get ls.ls_stale)) && ls.ls_gen = Atomic.get t.generation
      then begin
        Aeq_race.write ~site:"arena.release" t.table_loc;
        Aeq_race.write ~site:"arena.release" t.leases_loc;
        Aeq_race.write ~site:"arena.release" ls.ls_loc;
        Aeq_race.write ~site:"arena.release" t.spares_loc;
        Atomic.set ls.ls_stale true;
        if ls.ls_scratch then t.live_leases <- t.live_leases - 1;
        List.iter
          (fun s ->
            let b = t.chunks.(s) in
            let sz = chunk_length b in
            ignore (Atomic.fetch_and_add t.resident (-sz));
            if ls.ls_scratch then begin
              ignore (Atomic.fetch_and_add t.scratch (-sz));
              if pool_admits t sz then begin
                let same = Option.value ~default:[] (Hashtbl.find_opt t.spares sz) in
                Hashtbl.replace t.spares sz (b :: same);
                ignore (Atomic.fetch_and_add t.spare sz)
              end
            end;
            t.chunks.(s) <- no_chunk;
            t.n_live <- t.n_live - 1;
            t.free_slots <- s :: t.free_slots)
          ls.ls_slots;
        ls.ls_slots <- []
      end
      else Atomic.set ls.ls_stale true)

let release ls =
  (* the fault fires, but reclamation is unconditional: an injected
     fault at release must exercise caller error paths, never leak the
     lease's chunks *)
  Fun.protect
    ~finally:(fun () -> do_release ls)
    (fun () -> Aeq_util.Probe.hit "arena.release")

let lease_allocator ls =
  (* Fresh allocators start with no chunk; the first alloc grabs one.
     Slot 0 is never handed out, so no pointer is null. *)
  { lease = ls; chunk = -1; cursor = 0; limit = 0 }

let allocator t = lease_allocator (base_lease t)

let align_up v align = (v + align - 1) land lnot (align - 1)

let alloc a ?(align = 8) n =
  assert (n >= 0 && align > 0 && align land (align - 1) = 0);
  let ls = a.lease in
  let t = ls.ls_arena in
  (* fail fast on an allocator whose backing chunks were reclaimed —
     bump-allocating into a freed (empty) slot would corrupt
     whichever query holds it now *)
  if Atomic.get ls.ls_stale || ls.ls_gen <> Atomic.get t.generation then
    raise Stale_allocator;
  let start = align_up a.cursor align in
  if a.chunk >= 0 && start + n <= a.limit then begin
    a.cursor <- start + n;
    ignore (Atomic.fetch_and_add ls.ls_used n);
    encode a.chunk start
  end
  else begin
    let size = Stdlib.max t.chunk_size n in
    let idx = lease_chunk ls size in
    a.chunk <- idx;
    a.cursor <- n;
    a.limit <- size;
    ignore (Atomic.fetch_and_add ls.ls_used n);
    encode idx 0
  end

(* memory actually held right now — maintained as a running total so
   a metrics scrape is one atomic load, not an O(chunks) scan under the
   arena mutex *)
let resident_bytes t = Atomic.get t.resident

let live_chunks t =
  Aeq_race.Lock.with_ t.lock (fun () ->
      Aeq_race.read ~site:"arena.live_chunks" t.table_loc;
      t.n_live)

let scratch_resident_bytes t = Atomic.get t.scratch

let spare_bytes t = Atomic.get t.spare

let live_leases t =
  Aeq_race.Lock.with_ t.lock (fun () ->
      Aeq_race.read ~site:"arena.live_leases" t.leases_loc;
      t.live_leases)

(* Cross-check every counter the lock-free paths maintain against a
   ground-truth scan of the chunk table. Empty list = coherent. The
   simulator runs this at yield points, so any interleaving that lets
   the counters drift from the table is caught at the first quiescent
   instant after the drift, with the schedule in hand. *)
let check t =
  Aeq_race.Lock.with_ t.lock @@ fun () ->
  Aeq_race.read ~site:"arena.check" t.table_loc;
  Aeq_race.read ~site:"arena.check" t.leases_loc;
  Aeq_race.read ~site:"arena.check" t.spares_loc;
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let live = ref 0 and bytes = ref 0 in
  for i = 0 to t.n_chunks - 1 do
    if chunk_length t.chunks.(i) > 0 then begin
      incr live;
      bytes := !bytes + chunk_length t.chunks.(i)
    end
  done;
  if !live <> t.n_live then
    err "n_live=%d but %d slots hold memory" t.n_live !live;
  if !bytes <> Atomic.get t.resident then
    err "resident=%d but chunk table holds %d bytes" (Atomic.get t.resident)
      !bytes;
  let free = List.sort_uniq compare t.free_slots in
  if List.length free <> List.length t.free_slots then
    err "free_slots has duplicates";
  List.iter
    (fun s ->
      if s < 0 || s >= t.n_chunks then err "free slot %d out of range" s
      else if chunk_length t.chunks.(s) > 0 then
        err "free slot %d still holds %d bytes" s (chunk_length t.chunks.(s)))
    t.free_slots;
  if chunk_length t.chunks.(0) > 0 then err "null slot 0 holds memory";
  if t.n_live + List.length t.free_slots + 1 <> t.n_chunks then
    err "n_live=%d + free=%d + null slot <> n_chunks=%d" t.n_live
      (List.length t.free_slots) t.n_chunks;
  let scratch = Atomic.get t.scratch in
  if scratch < 0 then err "scratch resident negative: %d" scratch;
  if scratch > Atomic.get t.resident then
    err "scratch=%d exceeds resident=%d" scratch (Atomic.get t.resident);
  let pooled =
    Hashtbl.fold
      (fun size bs acc ->
        List.fold_left
          (fun acc b ->
            if chunk_length b <> size then
              err "a %d-byte spare is filed under size %d" (chunk_length b) size;
            b :: acc)
          acc bs)
      t.spares []
  in
  let spare = List.fold_left (fun n b -> n + chunk_length b) 0 pooled in
  if spare <> Atomic.get t.spare then
    err "spare=%d but the pool holds %d bytes" (Atomic.get t.spare) spare;
  if spare > t.peak_scratch then
    err "pool holds %d bytes, over the scratch peak %d" spare t.peak_scratch;
  (* a chunk both leased and pooled, or pooled twice, would be handed
     to two leases at once *)
  let rec shared = function
    | [] -> ()
    | b :: rest ->
      for s = 0 to t.n_chunks - 1 do
        if t.chunks.(s) == b then err "slot %d's chunk is also in the spare pool" s
      done;
      if List.exists (( == ) b) rest then
        err "a %d-byte chunk is in the spare pool twice" (chunk_length b);
      shared rest
  in
  shared pooled;
  if t.live_leases < 0 then err "live_leases negative: %d" t.live_leases;
  List.rev !errs

let reset t =
  Aeq_race.Lock.with_ t.lock (fun () ->
      (* Refuse to pull memory out from under a running query: a reset
         with scratch leases outstanding used to silently invalidate
         them and recycle their slots, turning a maintenance call into
         a data race with whatever those queries wrote next. *)
      if t.live_leases > 0 then begin
        let n = t.live_leases in
        invalid_arg
          (Printf.sprintf "Arena.reset: %d live scratch lease%s outstanding" n
             (if n = 1 then "" else "s"))
      end;
      Aeq_race.write ~site:"arena.reset" t.table_loc;
      Aeq_race.read ~site:"arena.reset" t.leases_loc;
      Aeq_race.write ~site:"arena.reset" t.spares_loc;
      (* invalidate every outstanding lease and allocator (base included) *)
      ignore (Atomic.fetch_and_add t.generation 1);
      (match t.base with Some b -> Atomic.set b.ls_stale true | None -> ());
      for i = 1 to t.n_chunks - 1 do
        t.chunks.(i) <- no_chunk
      done;
      t.n_chunks <- 1;
      t.free_slots <- [];
      t.n_live <- 0;
      Atomic.set t.resident 0;
      Atomic.set t.scratch 0;
      t.peak_scratch <- 0;
      Hashtbl.reset t.spares;
      Atomic.set t.spare 0;
      t.base <- Some (make_lease ~scratch:false t))

(* checked: a wild pointer (negative, or past the chunk table) raises
   the same [Invalid_argument] as one into an empty slot *)
let[@inline] buf t p = t.chunks.(p lsr offset_bits)

let[@inline] off p = p land offset_mask

(* bounds-checked native-endian access, inlined with int32/int64 unboxed *)
external chunk_get_u16 : chunk -> int -> int = "%caml_bigstring_get16"
external chunk_set_u16 : chunk -> int -> int -> unit = "%caml_bigstring_set16"
external chunk_get_i32 : chunk -> int -> int32 = "%caml_bigstring_get32"
external chunk_set_i32 : chunk -> int -> int32 -> unit = "%caml_bigstring_set32"
external chunk_get_i64 : chunk -> int -> int64 = "%caml_bigstring_get64"
external chunk_set_i64 : chunk -> int -> int64 -> unit = "%caml_bigstring_set64"

let get_i8 t p = Char.code (Bigarray.Array1.get (buf t p) (off p))

let set_i8 t p v = Bigarray.Array1.set (buf t p) (off p) (Char.unsafe_chr (v land 0xff))

let get_i16 t p = chunk_get_u16 (buf t p) (off p)

let set_i16 t p v = chunk_set_u16 (buf t p) (off p) (v land 0xffff)

let get_i32 t p = Int32.to_int (chunk_get_i32 (buf t p) (off p))

let set_i32 t p v = chunk_set_i32 (buf t p) (off p) v

let get_i64 t p = chunk_get_i64 (buf t p) (off p)

let set_i64 t p v = chunk_set_i64 (buf t p) (off p) v

let chunk_of t p = (buf t p, off p)
