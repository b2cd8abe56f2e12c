exception Unsupported = Bytecode.Unsupported

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

(* Growable instruction buffer: the three arrays of [Bytecode.t],
   encoded as each instruction is emitted. *)
module Buf = struct
  type t = {
    mutable code : int array;
    mutable ext : int array;
    mutable lits : int array;
    mutable len : int;
  }

  let create () =
    { code = Array.make 64 0; ext = Array.make 64 0; lits = Array.make 64 0; len = 0 }

  let grow a = Array.append a (Array.make (Array.length a) 0)

  let push t op a b c d e lit =
    let w = Bytecode.encode_code op ~a ~b and x = Bytecode.encode_ext ~c ~d ~e in
    if t.len >= Array.length t.code then begin
      t.code <- grow t.code;
      t.ext <- grow t.ext;
      t.lits <- grow t.lits
    end;
    t.code.(t.len) <- w;
    t.ext.(t.len) <- x;
    t.lits.(t.len) <- lit;
    t.len <- t.len + 1
end

(* An abort-only block (no φs, no instructions) is a fusion-eligible
   overflow trap target. *)
let abort_only (f : Func.t) blk_id =
  let b = Func.block f blk_id in
  Array.length b.Block.phis = 0
  && Array.length b.Block.instrs = 0
  && match b.Block.term with Instr.Abort _ -> true | _ -> false

(* VM registers hold integers sign-extended to 64 bits, so a
   [load i8], [load i16] or [load i32] whose only use is the next
   instruction's [sext] to i64 — a table cell — is one load defining
   the sext's value. The pair then takes one register, and the
   gep+load fusion turns it into one [LoadIdx8], [LoadIdx16] or
   [LoadIdx32]. Returns [f] itself when nothing folds. *)
let fold_load_sext (f : Func.t) ~use_counts =
  let fold (blk : Block.t) =
    let instrs = blk.Block.instrs in
    let n = Array.length instrs in
    let out = ref [] and i = ref 0 in
    while !i < n do
      (match (instrs.(!i), if !i + 1 < n then Some instrs.(!i + 1) else None) with
      | ( Instr.Load { ty = (Types.I8 | Types.I16 | Types.I32) as ty; dst = l; addr },
          Some
            (Instr.Cast
              { op = Instr.Sext; from_ty; to_ty = Types.I64; dst; v = Instr.Vreg v }) )
        when v = l && Types.equal from_ty ty && use_counts.(l) = 1 ->
        out := Instr.Load { ty; dst; addr } :: !out;
        i := !i + 2
      | this, _ ->
        out := this :: !out;
        incr i)
    done;
    if List.compare_length_with !out n = 0 then blk
    else { blk with Block.instrs = Array.of_list (List.rev !out) }
  in
  let blocks = Array.map fold f.Func.blocks in
  if Array.for_all2 ( == ) blocks f.Func.blocks then f else { f with Func.blocks }

let width_of = function
  | Types.I1 | Types.I8 -> 8
  | Types.I16 -> 16
  | Types.I32 -> 32
  | Types.I64 | Types.Ptr -> 64
  | Types.F64 -> unsupported "float width in integer op"

let translate ?(strategy = Regalloc.Loop_aware) ?(fuse = true) ~symbols (f : Func.t) =
  let n_params = Array.length f.Func.params in
  (* --- constant pool ---------------------------------------------- *)
  let const_idx : (int64, int) Hashtbl.t = Hashtbl.create 64 in
  let pool = ref [ 1L; 0L ] (* reversed *) in
  let n_pool = ref 2 in
  Hashtbl.replace const_idx 0L 0;
  Hashtbl.replace const_idx 1L 1;
  let intern bits =
    match Hashtbl.find_opt const_idx bits with
    | Some i -> i
    | None ->
      let i = !n_pool in
      Hashtbl.replace const_idx bits i;
      pool := bits :: !pool;
      incr n_pool;
      i
  in
  (* --- use counts (for fusion legality) and constant scan ---------- *)
  let use_counts = Array.make f.Func.n_values 0 in
  let scan_value = function
    | Instr.Vreg v -> use_counts.(v) <- use_counts.(v) + 1
    | Instr.Imm n -> ignore (intern n)
    | Instr.Fimm x -> ignore (intern (Int64.bits_of_float x))
  in
  Array.iter
    (fun (b : Block.t) ->
      Array.iter
        (fun (p : Instr.phi) -> Array.iter (fun (_, v) -> scan_value v) p.incoming)
        b.Block.phis;
      Array.iter (fun i -> List.iter scan_value (Instr.operands i)) b.Block.instrs;
      match b.Block.term with
      | Instr.CondBr { cond; _ } -> scan_value cond
      | Instr.Ret (Some v) -> scan_value v
      | Instr.Br _ | Instr.Ret None | Instr.Abort _ -> ())
    f.Func.blocks;
  let const_pool = Array.of_list (List.rev !pool) in
  let src_instr_count = Func.n_instrs f in
  let f = if fuse then fold_load_sext f ~use_counts else f in
  (* --- register layout -------------------------------------------- *)
  let param_offsets = Array.init n_params (fun i -> 8 * (Array.length const_pool + i)) in
  let base_offset = 8 * (Array.length const_pool + n_params) in
  let dom = Dom.compute f in
  let loops = Loops.compute f dom in
  let alloc = Regalloc.allocate strategy f loops ~base_offset ~param_offsets in
  let reg_of = function
    | Instr.Vreg v ->
      let off = alloc.Regalloc.slot_offset.(v) in
      if off < 0 then unsupported "value %%%d has no register" v;
      off
    | Instr.Imm n -> 8 * Hashtbl.find const_idx n
    | Instr.Fimm x -> 8 * Hashtbl.find const_idx (Int64.bits_of_float x)
  in
  (* --- runtime symbol table --------------------------------------- *)
  let rt_idx : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let rt_fns = ref [] in
  let n_rt = ref 0 in
  let resolve sym =
    match Hashtbl.find_opt rt_idx sym with
    | Some i -> i
    | None -> (
      match symbols sym with
      | None -> unsupported "unresolved runtime symbol %s" sym
      | Some fn ->
        let i = !n_rt in
        Hashtbl.replace rt_idx sym i;
        rt_fns := fn :: !rt_fns;
        incr n_rt;
        i)
  in
  (* --- abort messages ---------------------------------------------- *)
  let msg_idx : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let msgs = ref [] in
  let n_msgs = ref 0 in
  let message m =
    match Hashtbl.find_opt msg_idx m with
    | Some i -> i
    | None ->
      let i = !n_msgs in
      Hashtbl.replace msg_idx m i;
      msgs := m :: !msgs;
      incr n_msgs;
      i
  in
  (* --- emission ----------------------------------------------------- *)
  let buf = Buf.create () in
  let block_start = Array.make (Func.n_blocks f) (-1) in
  let fixups = ref [] in
  (* (code index, which field, target block) *)
  let jump_to ?(field = `A) target =
    fixups := (buf.Buf.len, field, target) :: !fixups
  in
  let emit op a b c d e lit = Buf.push buf op a b c d e lit in
  let emit2 op a b = emit op a b 0 0 0 0 in
  let emit3 op a b c = emit op a b c 0 0 0 in
  let emit_phi_copies src_block target =
    let tb = Func.block f target in
    Array.iter
      (fun (p : Instr.phi) ->
        match Array.find_opt (fun (pred, _) -> pred = src_block) p.incoming with
        | None -> unsupported "phi in block %d lacks incoming from %d" target src_block
        | Some (_, v) ->
          let dst = reg_of (Instr.Vreg p.dst) and src = reg_of v in
          if dst <> src then emit2 Opcode.Mov dst src)
      tb.Block.phis
  in
  let binop_op (op : Instr.binop) ty : Opcode.t =
    let w = width_of ty in
    match (op, w) with
    | Instr.Add, 8 -> Add_i8
    | Instr.Add, 16 -> Add_i16
    | Instr.Add, 32 -> Add_i32
    | Instr.Add, 64 -> Add_i64
    | Instr.Sub, 8 -> Sub_i8
    | Instr.Sub, 16 -> Sub_i16
    | Instr.Sub, 32 -> Sub_i32
    | Instr.Sub, 64 -> Sub_i64
    | Instr.Mul, 8 -> Mul_i8
    | Instr.Mul, 16 -> Mul_i16
    | Instr.Mul, 32 -> Mul_i32
    | Instr.Mul, 64 -> Mul_i64
    | Instr.Div, 8 -> Div_i8
    | Instr.Div, 16 -> Div_i16
    | Instr.Div, 32 -> Div_i32
    | Instr.Div, 64 -> Div_i64
    | Instr.Rem, 8 -> Rem_i8
    | Instr.Rem, 16 -> Rem_i16
    | Instr.Rem, 32 -> Rem_i32
    | Instr.Rem, 64 -> Rem_i64
    | Instr.And, _ -> And64
    | Instr.Or, _ -> Or64
    | Instr.Xor, _ -> Xor64
    | Instr.Shl, 8 -> Shl_i8
    | Instr.Shl, 16 -> Shl_i16
    | Instr.Shl, 32 -> Shl_i32
    | Instr.Shl, 64 -> Shl_i64
    | Instr.LShr, 8 -> LShr_i8
    | Instr.LShr, 16 -> LShr_i16
    | Instr.LShr, 32 -> LShr_i32
    | Instr.LShr, 64 -> LShr_i64
    | Instr.AShr, _ -> AShr64
    | _ -> unsupported "binop width"
  in
  let icmp_op (op : Instr.icmp) ty : Opcode.t =
    let w = width_of ty in
    match (op, w) with
    | Instr.Eq, _ -> CmpEq
    | Instr.Ne, _ -> CmpNe
    | Instr.Slt, _ -> CmpSlt
    | Instr.Sle, _ -> CmpSle
    | Instr.Sgt, _ -> CmpSgt
    | Instr.Sge, _ -> CmpSge
    | Instr.Ult, 8 -> CmpUlt_i8
    | Instr.Ult, 16 -> CmpUlt_i16
    | Instr.Ult, 32 -> CmpUlt_i32
    | Instr.Ult, 64 -> CmpUlt_i64
    | Instr.Ule, 8 -> CmpUle_i8
    | Instr.Ule, 16 -> CmpUle_i16
    | Instr.Ule, 32 -> CmpUle_i32
    | Instr.Ule, 64 -> CmpUle_i64
    | Instr.Ugt, 8 -> CmpUgt_i8
    | Instr.Ugt, 16 -> CmpUgt_i16
    | Instr.Ugt, 32 -> CmpUgt_i32
    | Instr.Ugt, 64 -> CmpUgt_i64
    | Instr.Uge, 8 -> CmpUge_i8
    | Instr.Uge, 16 -> CmpUge_i16
    | Instr.Uge, 32 -> CmpUge_i32
    | Instr.Uge, 64 -> CmpUge_i64
    | _ -> unsupported "icmp width"
  in
  let load_op ty : Opcode.t =
    match ty with
    | Types.I1 | Types.I8 -> Load8
    | Types.I16 -> Load16
    | Types.I32 -> Load32
    | Types.I64 | Types.Ptr | Types.F64 -> Load64
  in
  let store_op ty : Opcode.t =
    match ty with
    | Types.I1 | Types.I8 -> Store8
    | Types.I16 -> Store16
    | Types.I32 -> Store32
    | Types.I64 | Types.Ptr | Types.F64 -> Store64
  in
  let loadidx_op ty : Opcode.t =
    match ty with
    | Types.I1 | Types.I8 -> LoadIdx8
    | Types.I16 -> LoadIdx16
    | Types.I32 -> LoadIdx32
    | Types.I64 | Types.Ptr | Types.F64 -> LoadIdx64
  in
  let storeidx_op ty : Opcode.t =
    match ty with
    | Types.I1 | Types.I8 -> StoreIdx8
    | Types.I16 -> StoreIdx16
    | Types.I32 -> StoreIdx32
    | Types.I64 | Types.Ptr | Types.F64 -> StoreIdx64
  in
  let emit_instr (i : Instr.t) =
    match i with
    | Instr.Binop { op; ty; dst; a; b } ->
      emit3 (binop_op op ty) (reg_of (Vreg dst)) (reg_of a) (reg_of b)
    | Instr.OvfFlag { op; ty; dst; a; b } ->
      let o : Opcode.t =
        match (op, width_of ty) with
        | Instr.OAdd, 32 -> OvfAdd_i32
        | Instr.OAdd, 64 -> OvfAdd_i64
        | Instr.OSub, 32 -> OvfSub_i32
        | Instr.OSub, 64 -> OvfSub_i64
        | Instr.OMul, 32 -> OvfMul_i32
        | Instr.OMul, 64 -> OvfMul_i64
        | _ -> unsupported "overflow check width"
      in
      emit3 o (reg_of (Vreg dst)) (reg_of a) (reg_of b)
    | Instr.Fbinop { op; dst; a; b } ->
      let o : Opcode.t =
        match op with Instr.FAdd -> FAdd | FSub -> FSub | FMul -> FMul | FDiv -> FDiv
      in
      emit3 o (reg_of (Vreg dst)) (reg_of a) (reg_of b)
    | Instr.Icmp { op; ty; dst; a; b } ->
      emit3 (icmp_op op ty) (reg_of (Vreg dst)) (reg_of a) (reg_of b)
    | Instr.Fcmp { op; dst; a; b } ->
      let o : Opcode.t =
        match op with
        | Instr.FEq -> FCmpEq
        | FNe -> FCmpNe
        | FLt -> FCmpLt
        | FLe -> FCmpLe
        | FGt -> FCmpGt
        | FGe -> FCmpGe
      in
      emit3 o (reg_of (Vreg dst)) (reg_of a) (reg_of b)
    | Instr.Select { dst; cond; a; b; _ } ->
      emit Opcode.SelectOp (reg_of (Vreg dst)) (reg_of cond) (reg_of a) (reg_of b) 0 0
    | Instr.Cast { op; from_ty; to_ty; dst; v } -> (
      let d = reg_of (Vreg dst) and s = reg_of v in
      match op with
      | Instr.Bitcast -> emit2 Opcode.Mov d s
      | Instr.SiToFp -> emit2 Opcode.SiToFp d s
      | Instr.FpToSi -> emit2 Opcode.FpToSi d s
      | Instr.Zext -> (
        match from_ty with
        | Types.I1 | Types.I64 | Types.Ptr -> emit2 Opcode.Mov d s
        | Types.I8 -> emit2 Opcode.Zext8 d s
        | Types.I16 -> emit2 Opcode.Zext16 d s
        | Types.I32 -> emit2 Opcode.Zext32 d s
        | Types.F64 -> unsupported "zext from float")
      | Instr.Sext -> (
        match from_ty with
        | Types.I1 ->
          (* sext i1 = 0 - v on canonical 0/1 *)
          emit3 Opcode.Sub_i64 d 0 s
        | _ -> emit2 Opcode.Mov d s)
      | Instr.Trunc -> (
        match to_ty with
        | Types.I1 -> emit2 Opcode.Trunc1 d s
        | Types.I8 -> emit2 Opcode.Trunc8 d s
        | Types.I16 -> emit2 Opcode.Trunc16 d s
        | Types.I32 -> emit2 Opcode.Trunc32 d s
        | Types.I64 | Types.Ptr -> emit2 Opcode.Mov d s
        | Types.F64 -> unsupported "trunc to float"))
    | Instr.Load { ty; dst; addr } ->
      emit2 (load_op ty) (reg_of (Vreg dst)) (reg_of addr)
    | Instr.Store { ty; addr; v } -> emit2 (store_op ty) (reg_of v) (reg_of addr)
    | Instr.Gep { dst; base; index; scale; offset } -> (
      match index with
      | Instr.Imm n ->
        emit Opcode.GepConst (reg_of (Vreg dst)) (reg_of base) 0 0 0
          ((Int64.to_int n * scale) + offset)
      | _ ->
        emit Opcode.Gep (reg_of (Vreg dst)) (reg_of base) (reg_of index) 0 0
          (Bytecode.pack_scale_offset ~scale ~offset))
    | Instr.Call { dst; sym; args; _ } -> (
      let idx = resolve sym in
      let arg i = reg_of args.(i) in
      match (dst, Array.length args) with
      | None, 0 -> emit Opcode.CallV0 0 0 0 0 0 idx
      | None, 1 -> emit Opcode.CallV1 (arg 0) 0 0 0 0 idx
      | None, 2 -> emit Opcode.CallV2 (arg 0) (arg 1) 0 0 0 idx
      | None, 3 -> emit Opcode.CallV3 (arg 0) (arg 1) (arg 2) 0 0 idx
      | None, 4 ->
        emit Opcode.CallV4 (arg 0) (arg 1) (arg 2) (arg 3) 0 idx
      | None, 5 ->
        emit Opcode.CallV5 (arg 0) (arg 1) (arg 2) (arg 3) (arg 4) idx
      | Some (d, _), 0 -> emit Opcode.CallR0 (reg_of (Vreg d)) 0 0 0 0 idx
      | Some (d, _), 1 -> emit Opcode.CallR1 (reg_of (Vreg d)) (arg 0) 0 0 0 idx
      | Some (d, _), 2 ->
        emit Opcode.CallR2 (reg_of (Vreg d)) (arg 0) (arg 1) 0 0 idx
      | Some (d, _), 3 ->
        emit Opcode.CallR3 (reg_of (Vreg d)) (arg 0) (arg 1) (arg 2) 0 idx
      | Some (d, _), 4 ->
        emit Opcode.CallR4 (reg_of (Vreg d)) (arg 0) (arg 1) (arg 2) (arg 3) idx
      | _ -> unsupported "call arity for %s" sym)
  in
  let emit_terminator src (term : Instr.terminator) =
    match term with
    | Instr.Br t ->
      emit_phi_copies src t;
      jump_to t;
      emit2 Opcode.Jmp 0 0
    | Instr.CondBr { cond; if_true; if_false } ->
      emit_phi_copies src if_true;
      emit_phi_copies src if_false;
      jump_to ~field:`B if_true;
      jump_to ~field:`C if_false;
      emit2 Opcode.CondJmp (reg_of cond) 0
    | Instr.Ret (Some v) -> emit2 Opcode.RetVal (reg_of v) 0
    | Instr.Ret None -> emit2 Opcode.RetVoid 0 0
    | Instr.Abort m -> emit2 Opcode.AbortOp (message m) 0
  in
  Array.iter
    (fun (blk : Block.t) ->
      let bid = blk.Block.id in
      block_start.(bid) <- buf.Buf.len;
      let instrs = blk.Block.instrs in
      let n = Array.length instrs in
      let i = ref 0 in
      let term_done = ref false in
      while !i < n do
        let this = instrs.(!i) in
        let fused =
          if not fuse then false
          else
            match this with
            (* gep + load/store fusion *)
            | Instr.Gep { dst; base; index; scale; offset } when !i + 1 < n -> (
              match instrs.(!i + 1) with
              | Instr.Load { ty; dst = ldst; addr = Instr.Vreg a } when a = dst && use_counts.(dst) = 1 ->
                emit (loadidx_op ty) (reg_of (Vreg ldst)) (reg_of base) (reg_of index) 0 0
                  (Bytecode.pack_scale_offset ~scale ~offset);
                i := !i + 2;
                true
              | Instr.Store { ty; addr = Instr.Vreg a; v } when a = dst && use_counts.(dst) = 1 ->
                emit (storeidx_op ty) (reg_of v) (reg_of base) (reg_of index) 0 0
                  (Bytecode.pack_scale_offset ~scale ~offset);
                i := !i + 2;
                true
              | _ -> false)
            (* overflow-check fusion: binop; ovf; condbr-to-abort *)
            | Instr.Binop { op = bop; ty; dst; a; b } when !i + 2 = n -> (
              match (instrs.(!i + 1), blk.Block.term) with
              | ( Instr.OvfFlag { op = oop; ty = oty; dst = fdst; a = oa; b = ob },
                  Instr.CondBr { cond = Instr.Vreg c; if_true; if_false } )
                when c = fdst && use_counts.(fdst) = 1 && Types.equal ty oty
                     && Instr.value_equal a oa && Instr.value_equal b ob
                     && abort_only f if_true
                     && (match (bop, oop) with
                        | Instr.Add, Instr.OAdd | Instr.Sub, Instr.OSub | Instr.Mul, Instr.OMul
                          ->
                          true
                        | _ -> false)
                     && (match width_of ty with 32 | 64 -> true | _ -> false) ->
                let o : Opcode.t =
                  match (bop, width_of ty) with
                  | Instr.Add, 32 -> AddChk_i32
                  | Instr.Add, 64 -> AddChk_i64
                  | Instr.Sub, 32 -> SubChk_i32
                  | Instr.Sub, 64 -> SubChk_i64
                  | Instr.Mul, 32 -> MulChk_i32
                  | Instr.Mul, 64 -> MulChk_i64
                  | _ -> assert false
                in
                emit3 o (reg_of (Vreg dst)) (reg_of a) (reg_of b);
                emit_phi_copies bid if_false;
                jump_to if_false;
                emit2 Opcode.Jmp 0 0;
                term_done := true;
                i := !i + 2;
                true
              | _ -> false)
            (* cmp + condbr fusion *)
            | Instr.Icmp { op; ty; dst; a; b } when !i + 1 = n -> (
              match blk.Block.term with
              | Instr.CondBr { cond = Instr.Vreg c; if_true; if_false }
                when c = dst && use_counts.(dst) = 1 -> (
                let fused_op : Opcode.t option =
                  match op with
                  | Instr.Eq -> Some JmpEq
                  | Instr.Ne -> Some JmpNe
                  | Instr.Slt -> Some JmpSlt
                  | Instr.Sle -> Some JmpSle
                  | Instr.Sgt -> Some JmpSgt
                  | Instr.Sge -> Some JmpSge
                  | _ -> None
                in
                ignore ty;
                match fused_op with
                | Some o ->
                  emit_phi_copies bid if_true;
                  emit_phi_copies bid if_false;
                  jump_to ~field:`C if_true;
                  jump_to ~field:`D if_false;
                  emit2 o (reg_of a) (reg_of b);
                  term_done := true;
                  incr i;
                  true
                | None -> false)
              | _ -> false)
            | _ -> false
        in
        if not fused then begin
          emit_instr this;
          incr i
        end
      done;
      if not !term_done then emit_terminator bid blk.Block.term)
    f.Func.blocks;
  (* --- fixups ------------------------------------------------------- *)
  let n = buf.Buf.len in
  let prog =
    {
      Bytecode.name = f.Func.name;
      code = Array.sub buf.Buf.code 0 n;
      ext = Array.sub buf.Buf.ext 0 n;
      lits = Array.sub buf.Buf.lits 0 n;
      n_reg_bytes = alloc.Regalloc.n_reg_bytes;
      const_pool;
      param_offsets;
      rt_table = Array.of_list (List.rev !rt_fns);
      messages = Array.of_list (List.rev !msgs);
      src_instr_count;
    }
  in
  List.iter
    (fun (idx, field, target) ->
      let t = block_start.(target) in
      assert (t >= 0);
      let i = Bytecode.get prog idx in
      Bytecode.set prog idx
        (match field with
        | `A -> { i with a = t }
        | `B -> { i with b = t }
        | `C -> { i with c = t }
        | `D -> { i with d = t }))
    !fixups;
  (* always on: the interpreter reads registers unchecked *)
  Bytecode.check_registers prog;
  (* Under AEQ_VERIFY, certify our own output: structural/type-state
     checks on the emitted program plus the liveness cross-check on
     the allocation we actually used. *)
  if Aeq_util.Verify_mode.enabled () then begin
    let ds =
      Bc_verify.check_program prog
      @ Bc_verify.check_allocation f ~slot_offset:alloc.Regalloc.slot_offset
    in
    if ds <> [] then raise (Bc_verify.Rejected (Bc_verify.report f.Func.name ds))
  end;
  prog
