type t = {
  idoms : int array;
  pre : int array;
  post : int array;
  kids : int list array;
}

(* Cooper-Harvey-Kennedy: because blocks are RPO-numbered, walking up
   idom chains while comparing ids finds the common dominator. *)
let intersect idoms a b =
  let a = ref a and b = ref b in
  while !a <> !b do
    while !a > !b do
      a := idoms.(!a)
    done;
    while !b > !a do
      b := idoms.(!b)
    done
  done;
  !a

(* Linear time. The predecessors are one flat array, block [b]'s at
   [start.(b)] .. [start.(b+1) - 1] in decreasing block id, so no list
   or option per edge outlives the minor heap. The fold meets a block's
   predecessors from the nearest upwards: the running intersection only
   walks down, and each idom-chain link is visited about once per pass.
   In increasing order every predecessor would re-walk its whole chain,
   and the shared overflow-trap block (every checked operation branches
   to it) would make that quadratic in function size. *)
let compute (f : Func.t) =
  let n = Func.n_blocks f in
  let start = Array.make (n + 1) 0 in
  Array.iter
    (fun b -> List.iter (fun s -> start.(s + 1) <- start.(s + 1) + 1) (Block.successors b))
    f.Func.blocks;
  for b = 1 to n do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  let preds = Array.make start.(n) 0 in
  let fill = Array.sub start 0 n in
  for b = n - 1 downto 0 do
    List.iter
      (fun s ->
        preds.(fill.(s)) <- b;
        fill.(s) <- fill.(s) + 1)
      (Block.successors f.Func.blocks.(b))
  done;
  let idoms = Array.make n (-1) in
  idoms.(0) <- 0;
  let changed = ref true in
  while !changed do
    changed := false;
    for b = 1 to n - 1 do
      let d = ref (-1) in
      for k = start.(b) to start.(b + 1) - 1 do
        let p = preds.(k) in
        if idoms.(p) >= 0 then d := if !d < 0 then p else intersect idoms p !d
      done;
      if !d >= 0 && idoms.(b) <> !d then begin
        idoms.(b) <- !d;
        changed := true
      end
    done
  done;
  let kids = Array.make n [] in
  for b = n - 1 downto 1 do
    if idoms.(b) >= 0 then kids.(idoms.(b)) <- b :: kids.(idoms.(b))
  done;
  (* Pre/post-order labeling by iterative DFS over the dominator tree;
     [rest.(b)] holds the children of [b] not yet visited. *)
  let pre = Array.make n 0 and post = Array.make n 0 in
  let rest = Array.copy kids in
  let stack = Array.make n 0 in
  let sp = ref 1 and counter = ref 1 in
  pre.(0) <- 1;
  while !sp > 0 do
    let b = stack.(!sp - 1) in
    match rest.(b) with
    | [] ->
      decr sp;
      incr counter;
      post.(b) <- !counter
    | c :: more ->
      rest.(b) <- more;
      incr counter;
      pre.(c) <- !counter;
      stack.(!sp) <- c;
      incr sp
  done;
  { idoms; pre; post; kids }

let idom t b = t.idoms.(b)

let is_ancestor t ~ancestor b =
  t.pre.(ancestor) <= t.pre.(b) && t.post.(b) <= t.post.(ancestor)

let children t b = t.kids.(b)
