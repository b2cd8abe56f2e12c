(* A member of a nesting level is either a plain block or a whole
   child loop (emitted recursively as one unit). Members are keyed by
   their representative block: the block itself, or the child loop's
   head. A level numbers its members in representative order and keeps
   its member graph in int arrays indexed by that number, so "lowest
   representative first" is "lowest number first". *)

(* Binary min-heap of member numbers in [h.(0 .. !size - 1)]. *)
let heap_push h size x =
  let i = ref !size in
  incr size;
  while !i > 0 && h.((!i - 1) / 2) > x do
    h.(!i) <- h.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  h.(!i) <- x

let heap_pop h size =
  let top = h.(0) in
  decr size;
  let x = h.(!size) and n = !size in
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    let c = if l + 1 < n && h.(l + 1) < h.(l) then l + 1 else l in
    if c < n && h.(c) < x then begin
      h.(!i) <- h.(c);
      i := c
    end
    else sifting := false
  done;
  if n > 0 then h.(!i) <- x;
  top

let normalize (f : Func.t) =
  Cfg.reorder_rpo f;
  let dom = Dom.compute f in
  let loops = Loops.compute f dom in
  if Loops.contiguous loops && Loops.n_loops loops = 1 then ()
  else begin
    let n = Func.n_blocks f in
    let parent l = (Loops.loop loops l).Loops.parent in
    let head_of l = (Loops.loop loops l).Loops.head in
    (* Per-block maps of the level being built: [level.(b) = li] when
       [b] is in loop [li], with [rep.(b)] its member's representative;
       [rep_level.(r) = li] when [r] represents a member of [li], with
       [child.(r)] that member's loop (or -1 for a plain block) and
       [num.(r)] its number. A level finishes building before it emits
       a child loop, which rewrites these entries for its own blocks. *)
    let level = Array.make n (-1) and rep = Array.make n 0 in
    let rep_level = Array.make n (-1) and child = Array.make n (-1) in
    let num = Array.make n 0 in
    let order = Array.make n 0 and n_order = ref 0 in
    (* Emit the blocks of loop [li] in a topological order of its
       members, header first; child loops are emitted recursively so
       their bodies stay contiguous. *)
    let rec emit_loop li =
      let head = head_of li in
      let k = ref 0 in
      for b = 0 to n - 1 do
        if Loops.contains loops li b then begin
          (* [b] itself if its innermost loop is [li], else the
             ancestor of that loop whose parent is [li] *)
          let inner = Loops.innermost loops b in
          let l =
            if inner = li then -1
            else begin
              let rec ascend l = if parent l = li then l else ascend (parent l) in
              ascend inner
            end
          in
          let r = if l < 0 then b else head_of l in
          level.(b) <- li;
          rep.(b) <- r;
          if rep_level.(r) <> li then begin
            rep_level.(r) <- li;
            child.(r) <- l;
            incr k
          end
        end
      done;
      let k = !k in
      let reps = Array.make k 0 and loop_of = Array.make k (-1) in
      let i = ref 0 in
      for r = 0 to n - 1 do
        if rep_level.(r) = li then begin
          num.(r) <- !i;
          reps.(!i) <- r;
          loop_of.(!i) <- child.(r);
          incr i
        end
      done;
      (* The member DAG: one edge per distinct pair of members, none
         into the header. *)
      let succs = Array.make k [] and indeg = Array.make k 0 in
      for b = 0 to n - 1 do
        if level.(b) = li then begin
          let mb = num.(rep.(b)) in
          List.iter
            (fun s ->
              if level.(s) = li && rep.(s) <> head then begin
                let ms = num.(rep.(s)) in
                if mb <> ms && not (List.mem ms succs.(mb)) then begin
                  succs.(mb) <- ms :: succs.(mb);
                  indeg.(ms) <- indeg.(ms) + 1
                end
              end)
            (Block.successors (Func.block f b))
        end
      done;
      (* Kahn's algorithm, lowest representative first for stability.
         If the member graph has a cycle (irreducible control flow),
         force-release the smallest remaining representative — the
         layout stays a permutation, merely less tight. Each member
         enters the heap at most once: at the start with no incoming
         edge, or when its last incoming edge is emitted. *)
      let head_m = num.(head) in
      let heap = Array.make k 0 and size = ref 0 in
      for m = 0 to k - 1 do
        if indeg.(m) = 0 && m <> head_m then heap_push heap size m
      done;
      let emitted = Array.make k false and remaining = ref k and forced = ref 0 in
      let emit m =
        if not emitted.(m) then begin
          emitted.(m) <- true;
          decr remaining;
          if loop_of.(m) < 0 then begin
            order.(!n_order) <- reps.(m);
            incr n_order
          end
          else emit_loop loop_of.(m);
          List.iter
            (fun s ->
              indeg.(s) <- indeg.(s) - 1;
              if indeg.(s) = 0 then heap_push heap size s)
            succs.(m)
        end
      in
      emit head_m;
      while !remaining > 0 do
        if !size > 0 then emit (heap_pop heap size)
        else begin
          (* cycle: force the smallest unemitted member *)
          while emitted.(!forced) do
            incr forced
          done;
          emit !forced
        end
      done
    in
    emit_loop 0;
    Cfg.apply_order f order
  end
