(* Bytecode verification: structural checks, an abstract interpretation
   of the register file, and a liveness cross-check on the register
   allocation.

   The structural pass and the abstract interpreter work on the
   [Bytecode.t] alone and certify what the interpreter and the closure
   backend assume: jump targets in bounds (instruction boundaries are
   free in this encoding — code is an array of fixed-length
   instructions, not a byte stream), opcodes valid,
   register offsets aligned and inside the register file, constants
   never overwritten, runtime-call arities matching the function table,
   and — per pc, as a forward dataflow over slot type-states — no read
   of a register no path has written (the register file is reused
   across morsels, so a read-before-write sees stale data from the
   previous morsel) and no integer opcode consuming a definite float or
   vice versa.

   [check_allocation] is the cross-check against the paper's
   linear-time liveness (Figs. 9–12): it recomputes *precise* SSA
   liveness on the dataflow framework (in the same φ-as-copies model
   Regalloc uses) and verifies that no definition writes a slot while a
   different value sharing that slot is still live — i.e. that the
   conservative [first_block, last_block] intervals really did cover
   every simultaneous lifetime before the allocator let two values
   share a slot. *)

type diagnostic = { pc : int option; message : string }

exception Rejected of string

let diagnostic_to_string name d =
  match d.pc with
  | Some pc -> Printf.sprintf "%s: pc %d: %s" name pc d.message
  | None -> Printf.sprintf "%s: %s" name d.message

let report name ds = String.concat "\n" (List.map (diagnostic_to_string name) ds)

(* ---- opcode shape table ---------------------------------------------- *)

(* What an instruction does to the register file, derived from the
   interpreter's semantics. [ireads]/[freads] are reads that must be
   integer/float (or unknown); [areads] only require initialization.
   [write] is [Some (reg, state)] with the abstract state stored. *)
type shape = {
  ireads : int list;
  freads : int list;
  areads : int list;
  write : (int * int) option;
  jumps : int list;
  falls : bool;
}

(* abstract slot states *)
let uninit = 0

let tint = 1

let tfloat = 2

let tany = 3

let join a b = if a = b then a else if a = uninit || b = uninit then uninit else tany

let state_name = function
  | 0 -> "uninitialized"
  | 1 -> "integer"
  | 2 -> "float"
  | _ -> "unknown"

let no_shape =
  { ireads = []; freads = []; areads = []; write = None; jumps = []; falls = true }

(* [state_of] reads the abstract in-state, for the copy semantics of
   Mov and Select. *)
let shape_of (i : Bytecode.insn) ~state_of : shape =
  let int3 = { no_shape with ireads = [ i.b; i.c ]; write = Some (i.a, tint) } in
  let float3 = { no_shape with freads = [ i.b; i.c ]; write = Some (i.a, tfloat) } in
  let fcmp = { no_shape with freads = [ i.b; i.c ]; write = Some (i.a, tint) } in
  let icast = { no_shape with ireads = [ i.b ]; write = Some (i.a, tint) } in
  let callv arity =
    let fields = [ i.a; i.b; i.c; i.d; i.e ] in
    { no_shape with areads = List.filteri (fun k _ -> k < arity) fields }
  in
  let callr arity =
    let fields = [ i.b; i.c; i.d; i.e ] in
    {
      no_shape with
      areads = List.filteri (fun k _ -> k < arity) fields;
      write = Some (i.a, tany);
    }
  in
  match i.op with
  | Opcode.Mov -> { no_shape with areads = [ i.b ]; write = Some (i.a, state_of i.b) }
  | Add_i8 | Add_i16 | Add_i32 | Add_i64 | Sub_i8 | Sub_i16 | Sub_i32 | Sub_i64 | Mul_i8
  | Mul_i16 | Mul_i32 | Mul_i64 | Div_i8 | Div_i16 | Div_i32 | Div_i64 | Rem_i8 | Rem_i16
  | Rem_i32 | Rem_i64 | And64 | Or64 | Xor64 | Shl_i8 | Shl_i16 | Shl_i32 | Shl_i64
  | LShr_i8 | LShr_i16 | LShr_i32 | LShr_i64 | AShr64 | AddChk_i32 | AddChk_i64
  | SubChk_i32 | SubChk_i64 | MulChk_i32 | MulChk_i64 | OvfAdd_i32 | OvfAdd_i64
  | OvfSub_i32 | OvfSub_i64 | OvfMul_i32 | OvfMul_i64 | CmpEq | CmpNe | CmpSlt | CmpSle
  | CmpSgt | CmpSge | CmpUlt_i8 | CmpUlt_i16 | CmpUlt_i32 | CmpUlt_i64 | CmpUle_i8
  | CmpUle_i16 | CmpUle_i32 | CmpUle_i64 | CmpUgt_i8 | CmpUgt_i16 | CmpUgt_i32
  | CmpUgt_i64 | CmpUge_i8 | CmpUge_i16 | CmpUge_i32 | CmpUge_i64 ->
    int3
  | FAdd | FSub | FMul | FDiv -> float3
  | FCmpEq | FCmpNe | FCmpLt | FCmpLe | FCmpGt | FCmpGe -> fcmp
  | SelectOp ->
    {
      no_shape with
      ireads = [ i.b ];
      areads = [ i.c; i.d ];
      write = Some (i.a, join (state_of i.c) (state_of i.d));
    }
  | Zext8 | Zext16 | Zext32 | Trunc1 | Trunc8 | Trunc16 | Trunc32 -> icast
  | SiToFp -> { no_shape with ireads = [ i.b ]; write = Some (i.a, tfloat) }
  | FpToSi -> { no_shape with freads = [ i.b ]; write = Some (i.a, tint) }
  | Load8 | Load16 | Load32 -> { no_shape with ireads = [ i.b ]; write = Some (i.a, tint) }
  | Load64 -> { no_shape with ireads = [ i.b ]; write = Some (i.a, tany) }
  | Store8 | Store16 | Store32 | Store64 -> { no_shape with areads = [ i.a ]; ireads = [ i.b ] }
  | Gep -> { no_shape with ireads = [ i.b; i.c ]; write = Some (i.a, tint) }
  | GepConst -> { no_shape with ireads = [ i.b ]; write = Some (i.a, tint) }
  | LoadIdx8 | LoadIdx16 | LoadIdx32 ->
    { no_shape with ireads = [ i.b; i.c ]; write = Some (i.a, tint) }
  | LoadIdx64 -> { no_shape with ireads = [ i.b; i.c ]; write = Some (i.a, tany) }
  | StoreIdx8 | StoreIdx16 | StoreIdx32 | StoreIdx64 ->
    { no_shape with areads = [ i.a ]; ireads = [ i.b; i.c ] }
  | Jmp -> { no_shape with jumps = [ i.a ]; falls = false }
  | CondJmp -> { no_shape with ireads = [ i.a ]; jumps = [ i.b; i.c ]; falls = false }
  | JmpEq | JmpNe | JmpSlt | JmpSle | JmpSgt | JmpSge ->
    { no_shape with ireads = [ i.a; i.b ]; jumps = [ i.c; i.d ]; falls = false }
  | RetVal -> { no_shape with areads = [ i.a ]; falls = false }
  | RetVoid -> { no_shape with falls = false }
  | AbortOp -> { no_shape with falls = false }
  | CallV0 -> callv 0
  | CallV1 -> callv 1
  | CallV2 -> callv 2
  | CallV3 -> callv 3
  | CallV4 -> callv 4
  | CallV5 -> callv 5
  | CallR0 -> callr 0
  | CallR1 -> callr 1
  | CallR2 -> callr 2
  | CallR3 -> callr 3
  | CallR4 -> callr 4

let call_arity (op : Opcode.t) =
  match op with
  | CallV0 | CallR0 -> Some 0
  | CallV1 | CallR1 -> Some 1
  | CallV2 | CallR2 -> Some 2
  | CallV3 | CallR3 -> Some 3
  | CallV4 | CallR4 -> Some 4
  | CallV5 -> Some 5
  | _ -> None

(* ---- structural + abstract interpretation ---------------------------- *)

let check_program (p : Bytecode.t) : diagnostic list =
  let diags = ref [] in
  let emit ?pc fmt =
    Format.kasprintf (fun message -> diags := { pc; message } :: !diags) fmt
  in
  let n_code = Array.length p.Bytecode.code in
  let n_slots = p.Bytecode.n_reg_bytes / 8 in
  let n_consts = Array.length p.Bytecode.const_pool in
  let n_ext = Array.length p.Bytecode.ext and n_lits = Array.length p.Bytecode.lits in
  if n_code = 0 then emit "program has no instructions";
  if n_ext <> n_code || n_lits <> n_code then
    emit "instruction arrays disagree: %d code, %d ext and %d literal words" n_code n_ext
      n_lits;
  Array.iteri
    (fun pc w ->
      let op = w land ((1 lsl Bytecode.op_bits) - 1) in
      if op >= Opcode.count then emit ~pc "opcode %d out of range" op)
    p.Bytecode.code;
  if !diags <> [] then List.rev !diags
  else begin
    let code = Array.init n_code (Bytecode.get p) in
    if p.Bytecode.n_reg_bytes mod 8 <> 0 then
      emit "register file size %d is not a multiple of 8" p.Bytecode.n_reg_bytes;
    if n_slots < n_consts + Array.length p.Bytecode.param_offsets then
      emit "register file (%d slots) cannot hold %d constants + %d parameters" n_slots
        n_consts
        (Array.length p.Bytecode.param_offsets);
    Array.iteri
      (fun k off ->
        if off < 0 || off mod 8 <> 0 || off + 8 > p.Bytecode.n_reg_bytes then
          emit "parameter %d offset %d invalid for a %d-byte register file" k off
            p.Bytecode.n_reg_bytes)
      p.Bytecode.param_offsets;
    (* per-insn structural checks over the whole code array, reachable
       or not *)
    let zero_state _ = tany in
    Array.iteri
      (fun pc (i : Bytecode.insn) ->
        let sh = shape_of i ~state_of:zero_state in
        let check_reg what off =
          if off < 0 || off mod 8 <> 0 || off + 8 > p.Bytecode.n_reg_bytes then
            emit ~pc "%s register offset %d out of bounds (register file is %d bytes)" what
              off p.Bytecode.n_reg_bytes
        in
        List.iter (check_reg "read") (sh.ireads @ sh.freads @ sh.areads);
        (match sh.write with
        | Some (off, _) ->
          check_reg "write" off;
          if off >= 0 && off mod 8 = 0 && off / 8 < n_consts then
            emit ~pc "write to constant-pool slot %d" (off / 8)
        | None -> ());
        List.iter
          (fun t ->
            if t < 0 || t >= n_code then
              emit ~pc "jump target %d out of bounds (code length %d)" t n_code)
          sh.jumps;
        if sh.falls && pc + 1 >= n_code then emit ~pc "control falls off the end of the code";
        (match i.op with
        | Opcode.AbortOp ->
          if i.a < 0 || i.a >= Array.length p.Bytecode.messages then
            emit ~pc "abort message index %d out of bounds" i.a
        | _ -> ());
        match call_arity i.op with
        | Some arity -> (
          let idx = i.lit in
          if idx < 0 || idx >= Array.length p.Bytecode.rt_table then
            emit ~pc "runtime-call index %d out of bounds (table has %d entries)" idx
              (Array.length p.Bytecode.rt_table)
          else
            let actual = Rt_fn.arity p.Bytecode.rt_table.(idx) in
            if actual <> arity then
              emit ~pc "%s expects a %d-ary runtime function but table entry %d is %d-ary"
                (Opcode.to_string i.op) arity idx actual)
        | None -> ())
      code;
    (* abstract interpretation of slot type-states — only meaningful if
       the structure held up *)
    if !diags = [] then begin
      let param_slots = Array.map (fun off -> off / 8) p.Bytecode.param_offsets in
      let initial =
        Array.init n_slots (fun s ->
            if s < n_consts || Array.exists (Int.equal s) param_slots then tany else uninit)
      in
      let states = Array.make n_code [||] in
      let reached = Array.make n_code false in
      let queue = Queue.create () in
      let join_into pc st =
        if not reached.(pc) then begin
          reached.(pc) <- true;
          states.(pc) <- Array.copy st;
          Queue.add pc queue
        end
        else begin
          let cur = states.(pc) in
          let changed = ref false in
          Array.iteri
            (fun s v ->
              let j = join cur.(s) v in
              if j <> cur.(s) then begin
                cur.(s) <- j;
                changed := true
              end)
            st;
          if !changed then Queue.add pc queue
        end
      in
      join_into 0 initial;
      while not (Queue.is_empty queue) do
        let pc = Queue.take queue in
        let st = states.(pc) in
        let i = code.(pc) in
        let sh = shape_of i ~state_of:(fun off -> st.(off / 8)) in
        let out = Array.copy st in
        (match sh.write with Some (off, v) -> out.(off / 8) <- v | None -> ());
        List.iter (fun t -> join_into t out) sh.jumps;
        if sh.falls then join_into (pc + 1) out
      done;
      (* one reporting pass over the fixpoint *)
      Array.iteri
        (fun pc (i : Bytecode.insn) ->
          if reached.(pc) then begin
            let st = states.(pc) in
            let sh = shape_of i ~state_of:(fun off -> st.(off / 8)) in
            let read kind bad off =
              let v = st.(off / 8) in
              if v = uninit then
                emit ~pc "%s reads register %d before any write reaches it"
                  (Opcode.to_string i.op) off
              else if v = bad then
                emit ~pc "%s (%s operand) reads a definite %s in register %d"
                  (Opcode.to_string i.op) kind (state_name v) off
            in
            List.iter (read "integer" tfloat) sh.ireads;
            List.iter (read "float" tint) sh.freads;
            List.iter (read "any" (-1)) sh.areads
          end)
        code
    end;
    List.rev !diags
  end

(* ---- liveness cross-check on the allocation --------------------------- *)

let check_allocation (f : Func.t) ~slot_offset : diagnostic list =
  let diags = ref [] in
  let emit fmt =
    Format.kasprintf (fun message -> diags := { pc = None; message } :: !diags) fmt
  in
  let slot v = if v >= 0 && v < Array.length slot_offset then slot_offset.(v) else -1 in
  let live = (Analysis.liveness f).Analysis.live_out in
  let vreg_uses acc = function Instr.Vreg r -> acc := r :: !acc | _ -> () in
  Array.iter
    (fun (blk : Block.t) ->
      let lv = Dataflow.Bitset.copy live.(blk.Block.id) in
      (* A definition may not write a slot that any *other* value
         needs at or after this point: values still live past the
         position, values read at the same position (the instruction
         reads before it writes — but two different values sharing the
         slot means one of them holds the wrong bits), and co-located
         definitions (parallel φ copies). *)
      let check_point where defs uses =
        let defs = List.sort_uniq compare defs in
        List.iter
          (fun d ->
            let sd = slot d in
            if sd >= 0 then begin
              Dataflow.Bitset.iter
                (fun v ->
                  if v <> d && slot v = sd then
                    emit
                      "%s, block %d: write of %%%d clobbers %%%d (still live), shared \
                       slot offset %d"
                      where blk.Block.id d v sd)
                lv;
              List.iter
                (fun u ->
                  if u <> d && (not (Dataflow.Bitset.mem lv u)) && slot u = sd then
                    emit
                      "%s, block %d: write of %%%d clobbers %%%d (read at the same \
                       position), shared slot offset %d"
                      where blk.Block.id d u sd)
                uses;
              List.iter
                (fun d' ->
                  if d' > d && slot d' = sd then
                    emit
                      "%s, block %d: %%%d and %%%d are defined at the same position \
                       but share slot offset %d"
                      where blk.Block.id d d' sd)
                defs
            end)
          defs;
        List.iter (Dataflow.Bitset.remove lv) defs;
        List.iter (Dataflow.Bitset.add lv) uses
      in
      (* terminator position: φ copies of the outgoing edges + the
         branch condition / return operand *)
      let defs = ref [] and uses = ref [] in
      Analysis.edge_copies f blk ~def:(fun d -> defs := d :: !defs) ~use:(vreg_uses uses);
      Analysis.term_uses blk ~use:(vreg_uses uses);
      check_point "terminator" !defs !uses;
      let instrs = blk.Block.instrs in
      for i = Array.length instrs - 1 downto 0 do
        let uses = ref [] in
        List.iter (vreg_uses uses) (Instr.operands instrs.(i));
        let defs = match Instr.dst_of instrs.(i) with Some d -> [ d ] | None -> [] in
        check_point (Printf.sprintf "instr %d" i) defs !uses
      done)
    f.Func.blocks;
  List.rev !diags

let check_translation ?(strategy = Regalloc.Loop_aware) (f : Func.t) (p : Bytecode.t) :
    diagnostic list =
  let structural = check_program p in
  let base_offset =
    8 * (Array.length p.Bytecode.const_pool + Array.length p.Bytecode.param_offsets)
  in
  let dom = Dom.compute f in
  let loops = Loops.compute f dom in
  let alloc =
    Regalloc.allocate strategy f loops ~base_offset ~param_offsets:p.Bytecode.param_offsets
  in
  structural @ check_allocation f ~slot_offset:alloc.Regalloc.slot_offset

let verify ?(name = "bytecode") p =
  match check_program p with [] -> () | ds -> raise (Rejected (report name ds))
