let instruction_count = Func.n_instrs

let block_count = Func.n_blocks

(* ---- liveness -------------------------------------------------------- *)

(* SSA liveness in the copy model the translator and the register
   allocator share: a φ materialises as parallel copies at the end of
   each predecessor, so its destination is *defined* at the end of
   every incoming block (not at its own block head) and its incoming
   values are *used* there, together with the branch condition. This
   matches [Regalloc.iter_mentions] exactly, which is what lets
   [Bc_verify] cross-check slot reuse against it. *)

let term_uses (blk : Block.t) ~use =
  (match blk.Block.term with
  | Instr.CondBr { cond; _ } -> use cond
  | Instr.Ret (Some v) -> use v
  | Instr.Br _ | Instr.Ret None | Instr.Abort _ -> ())

let edge_copies (f : Func.t) (blk : Block.t) ~def ~use =
  List.iter
    (fun s ->
      Array.iter
        (fun (p : Instr.phi) ->
          def p.Instr.dst;
          Array.iter (fun (pred, v) -> if pred = blk.Block.id then use v) p.Instr.incoming)
        (Func.block f s).Block.phis)
    (Block.successors blk)

type liveness = {
  live_in : Dataflow.Bitset.t array;
  live_out : Dataflow.Bitset.t array;
}

let liveness (f : Func.t) =
  let nv = f.Func.n_values in
  let module L = struct
    type t = Dataflow.Bitset.t

    let bottom () = Dataflow.Bitset.create nv

    let copy = Dataflow.Bitset.copy

    let join_into = Dataflow.Bitset.union_into
  end in
  let module D = Dataflow.Make (L) in
  let use live = function
    | Instr.Vreg r -> Dataflow.Bitset.add live r
    | Instr.Imm _ | Instr.Fimm _ -> ()
  in
  let transfer bid out =
    let live = Dataflow.Bitset.copy out in
    let blk = Func.block f bid in
    (* terminator position: the outgoing edges' φ copies kill their
       destinations and read their sources; the branch condition is
       read here too (it must survive the copies, so it is added after
       the kills) *)
    edge_copies f blk ~def:(Dataflow.Bitset.remove live) ~use:(fun _ -> ());
    term_uses blk ~use:(use live);
    edge_copies f blk ~def:(fun _ -> ()) ~use:(use live);
    for i = Array.length blk.Block.instrs - 1 downto 0 do
      let ins = blk.Block.instrs.(i) in
      (match Instr.dst_of ins with
      | Some d -> Dataflow.Bitset.remove live d
      | None -> ());
      List.iter (use live) (Instr.operands ins)
    done;
    (* φs of this block define nothing here: in the copy model their
       destinations were written at the end of each predecessor, so a
       used φ destination stays in live_in *)
    live
  in
  let r = D.run Dataflow.Backward f ~transfer in
  { live_in = r.D.block_in; live_out = r.D.block_out }
