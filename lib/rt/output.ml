module A = Aeq_mem.Arena

(* One thread's rows, chained in insertion order through an 8-byte
   header word in front of each row. *)
type per_thread = { mutable first : A.ptr; mutable last : A.ptr; mutable n : int }

type t = { arena : A.t; row_bytes : int; threads : per_thread array }

let header_bytes = 8

let create arena ~n_threads ~row_bytes =
  {
    arena;
    row_bytes;
    threads =
      Array.init (Stdlib.max 1 n_threads) (fun _ -> { first = A.null; last = A.null; n = 0 });
  }

let row t ~tid ~allocator =
  (* zeroed: the new header ends the chain *)
  let h = A.alloc allocator (header_bytes + t.row_bytes) in
  let pt = t.threads.(tid) in
  if pt.last = A.null then pt.first <- h
  else A.chunk_set_i64 (A.chunk t.arena pt.last) (A.chunk_offset pt.last) (Int64.of_int h);
  pt.last <- h;
  pt.n <- pt.n + 1;
  h + header_bytes

let count t = Array.fold_left (fun acc pt -> acc + pt.n) 0 t.threads

let rows t =
  let out = Array.make (count t) A.null in
  let i = ref 0 in
  Array.iter
    (fun pt ->
      let h = ref pt.first in
      while !h <> A.null do
        out.(!i) <- !h + header_bytes;
        incr i;
        h := Int64.to_int (A.chunk_get_i64 (A.chunk t.arena !h) (A.chunk_offset !h))
      done)
    t.threads;
  out
