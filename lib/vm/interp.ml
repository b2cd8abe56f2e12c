module A = Aeq_mem.Arena
module S = Semantics

let scratch (p : Bytecode.t) = Bytes.make (Stdlib.max 16 p.Bytecode.n_reg_bytes) '\000'

let[@inline] g regs off = Bytes.get_int64_ne regs off

let[@inline] s regs off v = Bytes.set_int64_ne regs off v

let[@inline] gf regs off = Int64.float_of_bits (Bytes.get_int64_ne regs off)

let[@inline] sf regs off v = Bytes.set_int64_ne regs off (Int64.bits_of_float v)

let[@inline] gp regs off = Int64.to_int (Bytes.get_int64_ne regs off)

(* The arena's 1- and 2-byte getters return the unsigned byte value;
   sign-extending it as an int here, not through [Semantics]' int64
   functions, keeps a narrow column load from boxing (a call into
   another module is not inlined under -opaque). *)
let[@inline] sext8 v = (v lxor 0x80) - 0x80

let[@inline] sext16 v = (v lxor 0x8000) - 0x8000

let run (p : Bytecode.t) mem ?regs ~args () =
  let regs = match regs with Some r -> r | None -> scratch p in
  Array.iteri (fun i c -> s regs (8 * i) c) p.Bytecode.const_pool;
  Array.iteri
    (fun i off -> s regs off (if i < Array.length args then args.(i) else 0L))
    p.Bytecode.param_offsets;
  let code = p.Bytecode.code in
  let tbl = p.Bytecode.rt_table in
  let rec go ip =
    let i = Array.unsafe_get code ip in
    match i.Bytecode.op with
    | Opcode.Mov ->
      s regs i.a (g regs i.b);
      go (ip + 1)
    | Add_i8 ->
      s regs i.a (S.add ~width:8 (g regs i.b) (g regs i.c));
      go (ip + 1)
    | Add_i16 ->
      s regs i.a (S.add ~width:16 (g regs i.b) (g regs i.c));
      go (ip + 1)
    | Add_i32 ->
      s regs i.a (S.add ~width:32 (g regs i.b) (g regs i.c));
      go (ip + 1)
    | Add_i64 ->
      s regs i.a (Int64.add (g regs i.b) (g regs i.c));
      go (ip + 1)
    | Sub_i8 ->
      s regs i.a (S.sub ~width:8 (g regs i.b) (g regs i.c));
      go (ip + 1)
    | Sub_i16 ->
      s regs i.a (S.sub ~width:16 (g regs i.b) (g regs i.c));
      go (ip + 1)
    | Sub_i32 ->
      s regs i.a (S.sub ~width:32 (g regs i.b) (g regs i.c));
      go (ip + 1)
    | Sub_i64 ->
      s regs i.a (Int64.sub (g regs i.b) (g regs i.c));
      go (ip + 1)
    | Mul_i8 ->
      s regs i.a (S.mul ~width:8 (g regs i.b) (g regs i.c));
      go (ip + 1)
    | Mul_i16 ->
      s regs i.a (S.mul ~width:16 (g regs i.b) (g regs i.c));
      go (ip + 1)
    | Mul_i32 ->
      s regs i.a (S.mul ~width:32 (g regs i.b) (g regs i.c));
      go (ip + 1)
    | Mul_i64 ->
      s regs i.a (Int64.mul (g regs i.b) (g regs i.c));
      go (ip + 1)
    | Div_i8 ->
      s regs i.a (S.div ~width:8 (g regs i.b) (g regs i.c));
      go (ip + 1)
    | Div_i16 ->
      s regs i.a (S.div ~width:16 (g regs i.b) (g regs i.c));
      go (ip + 1)
    | Div_i32 ->
      s regs i.a (S.div ~width:32 (g regs i.b) (g regs i.c));
      go (ip + 1)
    | Div_i64 ->
      s regs i.a (S.div ~width:64 (g regs i.b) (g regs i.c));
      go (ip + 1)
    | Rem_i8 ->
      s regs i.a (S.rem ~width:8 (g regs i.b) (g regs i.c));
      go (ip + 1)
    | Rem_i16 ->
      s regs i.a (S.rem ~width:16 (g regs i.b) (g regs i.c));
      go (ip + 1)
    | Rem_i32 ->
      s regs i.a (S.rem ~width:32 (g regs i.b) (g regs i.c));
      go (ip + 1)
    | Rem_i64 ->
      s regs i.a (S.rem ~width:64 (g regs i.b) (g regs i.c));
      go (ip + 1)
    | And64 ->
      s regs i.a (Int64.logand (g regs i.b) (g regs i.c));
      go (ip + 1)
    | Or64 ->
      s regs i.a (Int64.logor (g regs i.b) (g regs i.c));
      go (ip + 1)
    | Xor64 ->
      s regs i.a (Int64.logxor (g regs i.b) (g regs i.c));
      go (ip + 1)
    | Shl_i8 ->
      s regs i.a (S.shl ~width:8 (g regs i.b) (g regs i.c));
      go (ip + 1)
    | Shl_i16 ->
      s regs i.a (S.shl ~width:16 (g regs i.b) (g regs i.c));
      go (ip + 1)
    | Shl_i32 ->
      s regs i.a (S.shl ~width:32 (g regs i.b) (g regs i.c));
      go (ip + 1)
    | Shl_i64 ->
      s regs i.a (S.shl ~width:64 (g regs i.b) (g regs i.c));
      go (ip + 1)
    | LShr_i8 ->
      s regs i.a (S.lshr ~width:8 (g regs i.b) (g regs i.c));
      go (ip + 1)
    | LShr_i16 ->
      s regs i.a (S.lshr ~width:16 (g regs i.b) (g regs i.c));
      go (ip + 1)
    | LShr_i32 ->
      s regs i.a (S.lshr ~width:32 (g regs i.b) (g regs i.c));
      go (ip + 1)
    | LShr_i64 ->
      s regs i.a (S.lshr ~width:64 (g regs i.b) (g regs i.c));
      go (ip + 1)
    | AShr64 ->
      s regs i.a (Int64.shift_right (g regs i.b) (Int64.to_int (g regs i.c) land 63));
      go (ip + 1)
    | AddChk_i32 ->
      s regs i.a (S.add_chk ~width:32 (g regs i.b) (g regs i.c));
      go (ip + 1)
    | AddChk_i64 ->
      s regs i.a (S.add_chk ~width:64 (g regs i.b) (g regs i.c));
      go (ip + 1)
    | SubChk_i32 ->
      s regs i.a (S.sub_chk ~width:32 (g regs i.b) (g regs i.c));
      go (ip + 1)
    | SubChk_i64 ->
      s regs i.a (S.sub_chk ~width:64 (g regs i.b) (g regs i.c));
      go (ip + 1)
    | MulChk_i32 ->
      s regs i.a (S.mul_chk ~width:32 (g regs i.b) (g regs i.c));
      go (ip + 1)
    | MulChk_i64 ->
      s regs i.a (S.mul_chk ~width:64 (g regs i.b) (g regs i.c));
      go (ip + 1)
    | OvfAdd_i32 ->
      s regs i.a (S.bool_i64 (S.add_ovf ~width:32 (g regs i.b) (g regs i.c)));
      go (ip + 1)
    | OvfAdd_i64 ->
      s regs i.a (S.bool_i64 (S.add_ovf ~width:64 (g regs i.b) (g regs i.c)));
      go (ip + 1)
    | OvfSub_i32 ->
      s regs i.a (S.bool_i64 (S.sub_ovf ~width:32 (g regs i.b) (g regs i.c)));
      go (ip + 1)
    | OvfSub_i64 ->
      s regs i.a (S.bool_i64 (S.sub_ovf ~width:64 (g regs i.b) (g regs i.c)));
      go (ip + 1)
    | OvfMul_i32 ->
      s regs i.a (S.bool_i64 (S.mul_ovf ~width:32 (g regs i.b) (g regs i.c)));
      go (ip + 1)
    | OvfMul_i64 ->
      s regs i.a (S.bool_i64 (S.mul_ovf ~width:64 (g regs i.b) (g regs i.c)));
      go (ip + 1)
    | FAdd ->
      sf regs i.a (gf regs i.b +. gf regs i.c);
      go (ip + 1)
    | FSub ->
      sf regs i.a (gf regs i.b -. gf regs i.c);
      go (ip + 1)
    | FMul ->
      sf regs i.a (gf regs i.b *. gf regs i.c);
      go (ip + 1)
    | FDiv ->
      sf regs i.a (gf regs i.b /. gf regs i.c);
      go (ip + 1)
    | CmpEq ->
      s regs i.a (S.bool_i64 (Int64.equal (g regs i.b) (g regs i.c)));
      go (ip + 1)
    | CmpNe ->
      s regs i.a (S.bool_i64 (not (Int64.equal (g regs i.b) (g regs i.c))));
      go (ip + 1)
    | CmpSlt ->
      s regs i.a (S.bool_i64 (Int64.compare (g regs i.b) (g regs i.c) < 0));
      go (ip + 1)
    | CmpSle ->
      s regs i.a (S.bool_i64 (Int64.compare (g regs i.b) (g regs i.c) <= 0));
      go (ip + 1)
    | CmpSgt ->
      s regs i.a (S.bool_i64 (Int64.compare (g regs i.b) (g regs i.c) > 0));
      go (ip + 1)
    | CmpSge ->
      s regs i.a (S.bool_i64 (Int64.compare (g regs i.b) (g regs i.c) >= 0));
      go (ip + 1)
    | CmpUlt_i8 ->
      s regs i.a (S.bool_i64 (S.ucmp ~width:8 (g regs i.b) (g regs i.c) < 0));
      go (ip + 1)
    | CmpUlt_i16 ->
      s regs i.a (S.bool_i64 (S.ucmp ~width:16 (g regs i.b) (g regs i.c) < 0));
      go (ip + 1)
    | CmpUlt_i32 ->
      s regs i.a (S.bool_i64 (S.ucmp ~width:32 (g regs i.b) (g regs i.c) < 0));
      go (ip + 1)
    | CmpUlt_i64 ->
      s regs i.a (S.bool_i64 (S.ucmp ~width:64 (g regs i.b) (g regs i.c) < 0));
      go (ip + 1)
    | CmpUle_i8 ->
      s regs i.a (S.bool_i64 (S.ucmp ~width:8 (g regs i.b) (g regs i.c) <= 0));
      go (ip + 1)
    | CmpUle_i16 ->
      s regs i.a (S.bool_i64 (S.ucmp ~width:16 (g regs i.b) (g regs i.c) <= 0));
      go (ip + 1)
    | CmpUle_i32 ->
      s regs i.a (S.bool_i64 (S.ucmp ~width:32 (g regs i.b) (g regs i.c) <= 0));
      go (ip + 1)
    | CmpUle_i64 ->
      s regs i.a (S.bool_i64 (S.ucmp ~width:64 (g regs i.b) (g regs i.c) <= 0));
      go (ip + 1)
    | CmpUgt_i8 ->
      s regs i.a (S.bool_i64 (S.ucmp ~width:8 (g regs i.b) (g regs i.c) > 0));
      go (ip + 1)
    | CmpUgt_i16 ->
      s regs i.a (S.bool_i64 (S.ucmp ~width:16 (g regs i.b) (g regs i.c) > 0));
      go (ip + 1)
    | CmpUgt_i32 ->
      s regs i.a (S.bool_i64 (S.ucmp ~width:32 (g regs i.b) (g regs i.c) > 0));
      go (ip + 1)
    | CmpUgt_i64 ->
      s regs i.a (S.bool_i64 (S.ucmp ~width:64 (g regs i.b) (g regs i.c) > 0));
      go (ip + 1)
    | CmpUge_i8 ->
      s regs i.a (S.bool_i64 (S.ucmp ~width:8 (g regs i.b) (g regs i.c) >= 0));
      go (ip + 1)
    | CmpUge_i16 ->
      s regs i.a (S.bool_i64 (S.ucmp ~width:16 (g regs i.b) (g regs i.c) >= 0));
      go (ip + 1)
    | CmpUge_i32 ->
      s regs i.a (S.bool_i64 (S.ucmp ~width:32 (g regs i.b) (g regs i.c) >= 0));
      go (ip + 1)
    | CmpUge_i64 ->
      s regs i.a (S.bool_i64 (S.ucmp ~width:64 (g regs i.b) (g regs i.c) >= 0));
      go (ip + 1)
    | FCmpEq ->
      s regs i.a (S.bool_i64 (gf regs i.b = gf regs i.c));
      go (ip + 1)
    | FCmpNe ->
      s regs i.a (S.bool_i64 (gf regs i.b <> gf regs i.c));
      go (ip + 1)
    | FCmpLt ->
      s regs i.a (S.bool_i64 (gf regs i.b < gf regs i.c));
      go (ip + 1)
    | FCmpLe ->
      s regs i.a (S.bool_i64 (gf regs i.b <= gf regs i.c));
      go (ip + 1)
    | FCmpGt ->
      s regs i.a (S.bool_i64 (gf regs i.b > gf regs i.c));
      go (ip + 1)
    | FCmpGe ->
      s regs i.a (S.bool_i64 (gf regs i.b >= gf regs i.c));
      go (ip + 1)
    | SelectOp ->
      s regs i.a (if Int64.equal (g regs i.b) 0L then g regs i.d else g regs i.c);
      go (ip + 1)
    | Zext8 ->
      s regs i.a (Int64.logand (g regs i.b) 0xFFL);
      go (ip + 1)
    | Zext16 ->
      s regs i.a (Int64.logand (g regs i.b) 0xFFFFL);
      go (ip + 1)
    | Zext32 ->
      s regs i.a (Int64.logand (g regs i.b) 0xFFFFFFFFL);
      go (ip + 1)
    | Trunc1 ->
      s regs i.a (Int64.logand (g regs i.b) 1L);
      go (ip + 1)
    | Trunc8 ->
      s regs i.a (S.sext8 (g regs i.b));
      go (ip + 1)
    | Trunc16 ->
      s regs i.a (S.sext16 (g regs i.b));
      go (ip + 1)
    | Trunc32 ->
      s regs i.a (S.sext32 (g regs i.b));
      go (ip + 1)
    | SiToFp ->
      sf regs i.a (Int64.to_float (g regs i.b));
      go (ip + 1)
    | FpToSi ->
      s regs i.a (Int64.of_float (gf regs i.b));
      go (ip + 1)
    | Load8 ->
      s regs i.a (Int64.of_int (sext8 (A.get_i8 mem (gp regs i.b))));
      go (ip + 1)
    | Load16 ->
      s regs i.a (Int64.of_int (sext16 (A.get_i16 mem (gp regs i.b))));
      go (ip + 1)
    | Load32 ->
      s regs i.a (Int64.of_int (A.get_i32 mem (gp regs i.b)));
      go (ip + 1)
    | Load64 ->
      s regs i.a (A.get_i64 mem (gp regs i.b));
      go (ip + 1)
    | Store8 ->
      A.set_i8 mem (gp regs i.b) (Int64.to_int (g regs i.a) land 0xff);
      go (ip + 1)
    | Store16 ->
      A.set_i16 mem (gp regs i.b) (Int64.to_int (g regs i.a) land 0xffff);
      go (ip + 1)
    | Store32 ->
      A.set_i32 mem (gp regs i.b) (Int64.to_int32 (g regs i.a));
      go (ip + 1)
    | Store64 ->
      A.set_i64 mem (gp regs i.b) (g regs i.a);
      go (ip + 1)
    | Gep ->
      s regs i.a
        (Int64.add (g regs i.b)
           (Int64.of_int
              ((Int64.to_int (g regs i.c) * Bytecode.unpack_scale i.lit)
              + Bytecode.unpack_offset i.lit)));
      go (ip + 1)
    | GepConst ->
      s regs i.a (Int64.add (g regs i.b) i.lit);
      go (ip + 1)
    | LoadIdx8 ->
      let addr =
        gp regs i.b + (Int64.to_int (g regs i.c) * Bytecode.unpack_scale i.lit)
        + Bytecode.unpack_offset i.lit
      in
      s regs i.a (Int64.of_int (sext8 (A.get_i8 mem addr)));
      go (ip + 1)
    | LoadIdx16 ->
      let addr =
        gp regs i.b + (Int64.to_int (g regs i.c) * Bytecode.unpack_scale i.lit)
        + Bytecode.unpack_offset i.lit
      in
      s regs i.a (Int64.of_int (sext16 (A.get_i16 mem addr)));
      go (ip + 1)
    | LoadIdx32 ->
      let addr =
        gp regs i.b + (Int64.to_int (g regs i.c) * Bytecode.unpack_scale i.lit)
        + Bytecode.unpack_offset i.lit
      in
      s regs i.a (Int64.of_int (A.get_i32 mem addr));
      go (ip + 1)
    | LoadIdx64 ->
      let addr =
        gp regs i.b + (Int64.to_int (g regs i.c) * Bytecode.unpack_scale i.lit)
        + Bytecode.unpack_offset i.lit
      in
      s regs i.a (A.get_i64 mem addr);
      go (ip + 1)
    | StoreIdx8 ->
      let addr =
        gp regs i.b + (Int64.to_int (g regs i.c) * Bytecode.unpack_scale i.lit)
        + Bytecode.unpack_offset i.lit
      in
      A.set_i8 mem addr (Int64.to_int (g regs i.a) land 0xff);
      go (ip + 1)
    | StoreIdx16 ->
      let addr =
        gp regs i.b + (Int64.to_int (g regs i.c) * Bytecode.unpack_scale i.lit)
        + Bytecode.unpack_offset i.lit
      in
      A.set_i16 mem addr (Int64.to_int (g regs i.a) land 0xffff);
      go (ip + 1)
    | StoreIdx32 ->
      let addr =
        gp regs i.b + (Int64.to_int (g regs i.c) * Bytecode.unpack_scale i.lit)
        + Bytecode.unpack_offset i.lit
      in
      A.set_i32 mem addr (Int64.to_int32 (g regs i.a));
      go (ip + 1)
    | StoreIdx64 ->
      let addr =
        gp regs i.b + (Int64.to_int (g regs i.c) * Bytecode.unpack_scale i.lit)
        + Bytecode.unpack_offset i.lit
      in
      A.set_i64 mem addr (g regs i.a);
      go (ip + 1)
    | Jmp -> go i.a
    | CondJmp -> if Int64.equal (g regs i.a) 0L then go i.c else go i.b
    | JmpEq -> if Int64.equal (g regs i.a) (g regs i.b) then go i.c else go i.d
    | JmpNe -> if Int64.equal (g regs i.a) (g regs i.b) then go i.d else go i.c
    | JmpSlt -> if Int64.compare (g regs i.a) (g regs i.b) < 0 then go i.c else go i.d
    | JmpSle -> if Int64.compare (g regs i.a) (g regs i.b) <= 0 then go i.c else go i.d
    | JmpSgt -> if Int64.compare (g regs i.a) (g regs i.b) > 0 then go i.c else go i.d
    | JmpSge -> if Int64.compare (g regs i.a) (g regs i.b) >= 0 then go i.c else go i.d
    | RetVal -> g regs i.a
    | RetVoid -> 0L
    | AbortOp -> raise (Trap.Error p.Bytecode.messages.(i.a))
    | CallV0 ->
      (match Array.unsafe_get tbl (Int64.to_int i.lit) with
      | Rt_fn.F0 f -> ignore (f ())
      | _ -> assert false);
      go (ip + 1)
    | CallV1 ->
      (match Array.unsafe_get tbl (Int64.to_int i.lit) with
      | Rt_fn.F1 f -> ignore (f (g regs i.a))
      | _ -> assert false);
      go (ip + 1)
    | CallV2 ->
      (match Array.unsafe_get tbl (Int64.to_int i.lit) with
      | Rt_fn.F2 f -> ignore (f (g regs i.a) (g regs i.b))
      | _ -> assert false);
      go (ip + 1)
    | CallV3 ->
      (match Array.unsafe_get tbl (Int64.to_int i.lit) with
      | Rt_fn.F3 f -> ignore (f (g regs i.a) (g regs i.b) (g regs i.c))
      | _ -> assert false);
      go (ip + 1)
    | CallV4 ->
      (match Array.unsafe_get tbl (Int64.to_int i.lit) with
      | Rt_fn.F4 f -> ignore (f (g regs i.a) (g regs i.b) (g regs i.c) (g regs i.d))
      | _ -> assert false);
      go (ip + 1)
    | CallV5 ->
      (match Array.unsafe_get tbl (Int64.to_int i.lit) with
      | Rt_fn.F5 f ->
        ignore (f (g regs i.a) (g regs i.b) (g regs i.c) (g regs i.d) (g regs i.e))
      | _ -> assert false);
      go (ip + 1)
    | CallR0 ->
      (match Array.unsafe_get tbl (Int64.to_int i.lit) with
      | Rt_fn.F0 f -> s regs i.a (f ())
      | _ -> assert false);
      go (ip + 1)
    | CallR1 ->
      (match Array.unsafe_get tbl (Int64.to_int i.lit) with
      | Rt_fn.F1 f -> s regs i.a (f (g regs i.b))
      | _ -> assert false);
      go (ip + 1)
    | CallR2 ->
      (match Array.unsafe_get tbl (Int64.to_int i.lit) with
      | Rt_fn.F2 f -> s regs i.a (f (g regs i.b) (g regs i.c))
      | _ -> assert false);
      go (ip + 1)
    | CallR3 ->
      (match Array.unsafe_get tbl (Int64.to_int i.lit) with
      | Rt_fn.F3 f -> s regs i.a (f (g regs i.b) (g regs i.c) (g regs i.d))
      | _ -> assert false);
      go (ip + 1)
    | CallR4 ->
      (match Array.unsafe_get tbl (Int64.to_int i.lit) with
      | Rt_fn.F4 f -> s regs i.a (f (g regs i.b) (g regs i.c) (g regs i.d) (g regs i.e))
      | _ -> assert false);
      go (ip + 1)
  in
  go 0
