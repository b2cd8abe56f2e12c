module A = Aeq_mem.Arena
module S = Semantics
module B = Aeq_vm.Bytecode
module Op = Aeq_vm.Opcode
module Rt_fn = Aeq_vm.Rt_fn

type t = {
  prog : B.t;
  chunks : (Bytes.t -> int) array;
  result_off : int;
  total_reg_bytes : int;
}

(* Compiled code accesses its register file without bounds checks —
   the analogue of machine code addressing its stack frame directly.
   Offsets are produced by the register allocator, checked against the
   program's register file by [Bytecode.check_registers] when it is
   built, and [run] checks the buffer's size. *)
external unsafe_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external unsafe_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] g regs off = unsafe_get64 regs off

let[@inline] s regs off v = unsafe_set64 regs off v

let[@inline] gf regs off = Int64.float_of_bits (unsafe_get64 regs off)

let[@inline] sf regs off v = unsafe_set64 regs off (Int64.bits_of_float v)

let[@inline] gp regs off = Int64.to_int (unsafe_get64 regs off)

(* Sign-extending the low 8, 16 or 32 bits as an int here, not
   through [Semantics]' int64 functions, keeps a narrow column load
   or a truncation from boxing (a call into another module is not
   inlined under -opaque). [v] holds the unsigned low bits. *)
let[@inline] sext8 v = (v lxor 0x80) - 0x80

let[@inline] sext16 v = (v lxor 0x8000) - 0x8000

let[@inline] sext32 v = (v lxor 0x8000_0000) - 0x8000_0000

(* Non-control instructions compile to [Bytes.t -> unit] with every
   operand offset and literal captured. *)
let step_of mem (i : B.insn) : Bytes.t -> unit =
  let a = i.B.a and b = i.B.b and c = i.B.c and d = i.B.d and e = i.B.e in
  match i.B.op with
  | Op.Mov -> fun regs -> s regs a (g regs b)
  | Op.Add_i8 -> fun regs -> s regs a (S.add ~width:8 (g regs b) (g regs c))
  | Op.Add_i16 -> fun regs -> s regs a (S.add ~width:16 (g regs b) (g regs c))
  | Op.Add_i32 -> fun regs -> s regs a (S.add ~width:32 (g regs b) (g regs c))
  | Op.Add_i64 -> fun regs -> s regs a (Int64.add (g regs b) (g regs c))
  | Op.Sub_i8 -> fun regs -> s regs a (S.sub ~width:8 (g regs b) (g regs c))
  | Op.Sub_i16 -> fun regs -> s regs a (S.sub ~width:16 (g regs b) (g regs c))
  | Op.Sub_i32 -> fun regs -> s regs a (S.sub ~width:32 (g regs b) (g regs c))
  | Op.Sub_i64 -> fun regs -> s regs a (Int64.sub (g regs b) (g regs c))
  | Op.Mul_i8 -> fun regs -> s regs a (S.mul ~width:8 (g regs b) (g regs c))
  | Op.Mul_i16 -> fun regs -> s regs a (S.mul ~width:16 (g regs b) (g regs c))
  | Op.Mul_i32 -> fun regs -> s regs a (S.mul ~width:32 (g regs b) (g regs c))
  | Op.Mul_i64 -> fun regs -> s regs a (Int64.mul (g regs b) (g regs c))
  | Op.Div_i8 -> fun regs -> s regs a (S.div ~width:8 (g regs b) (g regs c))
  | Op.Div_i16 -> fun regs -> s regs a (S.div ~width:16 (g regs b) (g regs c))
  | Op.Div_i32 -> fun regs -> s regs a (S.div ~width:32 (g regs b) (g regs c))
  | Op.Div_i64 -> fun regs -> s regs a (S.div ~width:64 (g regs b) (g regs c))
  | Op.Rem_i8 -> fun regs -> s regs a (S.rem ~width:8 (g regs b) (g regs c))
  | Op.Rem_i16 -> fun regs -> s regs a (S.rem ~width:16 (g regs b) (g regs c))
  | Op.Rem_i32 -> fun regs -> s regs a (S.rem ~width:32 (g regs b) (g regs c))
  | Op.Rem_i64 -> fun regs -> s regs a (S.rem ~width:64 (g regs b) (g regs c))
  | Op.And64 -> fun regs -> s regs a (Int64.logand (g regs b) (g regs c))
  | Op.Or64 -> fun regs -> s regs a (Int64.logor (g regs b) (g regs c))
  | Op.Xor64 -> fun regs -> s regs a (Int64.logxor (g regs b) (g regs c))
  | Op.Shl_i8 -> fun regs -> s regs a (S.shl ~width:8 (g regs b) (g regs c))
  | Op.Shl_i16 -> fun regs -> s regs a (S.shl ~width:16 (g regs b) (g regs c))
  | Op.Shl_i32 -> fun regs -> s regs a (S.shl ~width:32 (g regs b) (g regs c))
  | Op.Shl_i64 -> fun regs -> s regs a (S.shl ~width:64 (g regs b) (g regs c))
  | Op.LShr_i8 -> fun regs -> s regs a (S.lshr ~width:8 (g regs b) (g regs c))
  | Op.LShr_i16 -> fun regs -> s regs a (S.lshr ~width:16 (g regs b) (g regs c))
  | Op.LShr_i32 -> fun regs -> s regs a (S.lshr ~width:32 (g regs b) (g regs c))
  | Op.LShr_i64 -> fun regs -> s regs a (S.lshr ~width:64 (g regs b) (g regs c))
  | Op.AShr64 ->
    fun regs -> s regs a (Int64.shift_right (g regs b) (Int64.to_int (g regs c) land 63))
  | Op.AddChk_i32 -> fun regs -> s regs a (S.add_chk ~width:32 (g regs b) (g regs c))
  | Op.AddChk_i64 -> fun regs -> s regs a (S.add_chk ~width:64 (g regs b) (g regs c))
  | Op.SubChk_i32 -> fun regs -> s regs a (S.sub_chk ~width:32 (g regs b) (g regs c))
  | Op.SubChk_i64 -> fun regs -> s regs a (S.sub_chk ~width:64 (g regs b) (g regs c))
  | Op.MulChk_i32 -> fun regs -> s regs a (S.mul_chk ~width:32 (g regs b) (g regs c))
  | Op.MulChk_i64 -> fun regs -> s regs a (S.mul_chk ~width:64 (g regs b) (g regs c))
  | Op.OvfAdd_i32 ->
    fun regs -> s regs a (S.bool_i64 (S.add_ovf ~width:32 (g regs b) (g regs c)))
  | Op.OvfAdd_i64 ->
    fun regs -> s regs a (S.bool_i64 (S.add_ovf ~width:64 (g regs b) (g regs c)))
  | Op.OvfSub_i32 ->
    fun regs -> s regs a (S.bool_i64 (S.sub_ovf ~width:32 (g regs b) (g regs c)))
  | Op.OvfSub_i64 ->
    fun regs -> s regs a (S.bool_i64 (S.sub_ovf ~width:64 (g regs b) (g regs c)))
  | Op.OvfMul_i32 ->
    fun regs -> s regs a (S.bool_i64 (S.mul_ovf ~width:32 (g regs b) (g regs c)))
  | Op.OvfMul_i64 ->
    fun regs -> s regs a (S.bool_i64 (S.mul_ovf ~width:64 (g regs b) (g regs c)))
  | Op.FAdd -> fun regs -> sf regs a (gf regs b +. gf regs c)
  | Op.FSub -> fun regs -> sf regs a (gf regs b -. gf regs c)
  | Op.FMul -> fun regs -> sf regs a (gf regs b *. gf regs c)
  | Op.FDiv -> fun regs -> sf regs a (gf regs b /. gf regs c)
  | Op.CmpEq -> fun regs -> s regs a (S.bool_i64 (Int64.equal (g regs b) (g regs c)))
  | Op.CmpNe -> fun regs -> s regs a (S.bool_i64 (not (Int64.equal (g regs b) (g regs c))))
  | Op.CmpSlt -> fun regs -> s regs a (S.bool_i64 (Int64.compare (g regs b) (g regs c) < 0))
  | Op.CmpSle -> fun regs -> s regs a (S.bool_i64 (Int64.compare (g regs b) (g regs c) <= 0))
  | Op.CmpSgt -> fun regs -> s regs a (S.bool_i64 (Int64.compare (g regs b) (g regs c) > 0))
  | Op.CmpSge -> fun regs -> s regs a (S.bool_i64 (Int64.compare (g regs b) (g regs c) >= 0))
  | Op.CmpUlt_i8 -> fun regs -> s regs a (S.bool_i64 (S.ucmp ~width:8 (g regs b) (g regs c) < 0))
  | Op.CmpUlt_i16 ->
    fun regs -> s regs a (S.bool_i64 (S.ucmp ~width:16 (g regs b) (g regs c) < 0))
  | Op.CmpUlt_i32 ->
    fun regs -> s regs a (S.bool_i64 (S.ucmp ~width:32 (g regs b) (g regs c) < 0))
  | Op.CmpUlt_i64 ->
    fun regs -> s regs a (S.bool_i64 (S.ucmp ~width:64 (g regs b) (g regs c) < 0))
  | Op.CmpUle_i8 -> fun regs -> s regs a (S.bool_i64 (S.ucmp ~width:8 (g regs b) (g regs c) <= 0))
  | Op.CmpUle_i16 ->
    fun regs -> s regs a (S.bool_i64 (S.ucmp ~width:16 (g regs b) (g regs c) <= 0))
  | Op.CmpUle_i32 ->
    fun regs -> s regs a (S.bool_i64 (S.ucmp ~width:32 (g regs b) (g regs c) <= 0))
  | Op.CmpUle_i64 ->
    fun regs -> s regs a (S.bool_i64 (S.ucmp ~width:64 (g regs b) (g regs c) <= 0))
  | Op.CmpUgt_i8 -> fun regs -> s regs a (S.bool_i64 (S.ucmp ~width:8 (g regs b) (g regs c) > 0))
  | Op.CmpUgt_i16 ->
    fun regs -> s regs a (S.bool_i64 (S.ucmp ~width:16 (g regs b) (g regs c) > 0))
  | Op.CmpUgt_i32 ->
    fun regs -> s regs a (S.bool_i64 (S.ucmp ~width:32 (g regs b) (g regs c) > 0))
  | Op.CmpUgt_i64 ->
    fun regs -> s regs a (S.bool_i64 (S.ucmp ~width:64 (g regs b) (g regs c) > 0))
  | Op.CmpUge_i8 -> fun regs -> s regs a (S.bool_i64 (S.ucmp ~width:8 (g regs b) (g regs c) >= 0))
  | Op.CmpUge_i16 ->
    fun regs -> s regs a (S.bool_i64 (S.ucmp ~width:16 (g regs b) (g regs c) >= 0))
  | Op.CmpUge_i32 ->
    fun regs -> s regs a (S.bool_i64 (S.ucmp ~width:32 (g regs b) (g regs c) >= 0))
  | Op.CmpUge_i64 ->
    fun regs -> s regs a (S.bool_i64 (S.ucmp ~width:64 (g regs b) (g regs c) >= 0))
  | Op.FCmpEq -> fun regs -> s regs a (S.bool_i64 (gf regs b = gf regs c))
  | Op.FCmpNe -> fun regs -> s regs a (S.bool_i64 (gf regs b <> gf regs c))
  | Op.FCmpLt -> fun regs -> s regs a (S.bool_i64 (gf regs b < gf regs c))
  | Op.FCmpLe -> fun regs -> s regs a (S.bool_i64 (gf regs b <= gf regs c))
  | Op.FCmpGt -> fun regs -> s regs a (S.bool_i64 (gf regs b > gf regs c))
  | Op.FCmpGe -> fun regs -> s regs a (S.bool_i64 (gf regs b >= gf regs c))
  | Op.SelectOp ->
    fun regs -> s regs a (if Int64.equal (g regs b) 0L then g regs d else g regs c)
  | Op.Zext8 -> fun regs -> s regs a (Int64.logand (g regs b) 0xFFL)
  | Op.Zext16 -> fun regs -> s regs a (Int64.logand (g regs b) 0xFFFFL)
  | Op.Zext32 -> fun regs -> s regs a (Int64.logand (g regs b) 0xFFFFFFFFL)
  | Op.Trunc1 -> fun regs -> s regs a (Int64.logand (g regs b) 1L)
  | Op.Trunc8 -> fun regs -> s regs a (Int64.of_int (sext8 (gp regs b land 0xff)))
  | Op.Trunc16 -> fun regs -> s regs a (Int64.of_int (sext16 (gp regs b land 0xffff)))
  | Op.Trunc32 -> fun regs -> s regs a (Int64.of_int (sext32 (gp regs b land 0xffff_ffff)))
  | Op.SiToFp -> fun regs -> sf regs a (Int64.to_float (g regs b))
  | Op.FpToSi -> fun regs -> s regs a (Int64.of_float (gf regs b))
  | Op.Load8 -> fun regs -> s regs a (Int64.of_int (sext8 (A.get_i8 mem (gp regs b))))
  | Op.Load16 -> fun regs -> s regs a (Int64.of_int (sext16 (A.get_i16 mem (gp regs b))))
  | Op.Load32 -> fun regs -> s regs a (Int64.of_int (A.get_i32 mem (gp regs b)))
  | Op.Load64 -> fun regs -> A.get_i64_to mem (gp regs b) regs a
  | Op.Store8 -> fun regs -> A.set_i8 mem (gp regs b) (Int64.to_int (g regs a) land 0xff)
  | Op.Store16 -> fun regs -> A.set_i16 mem (gp regs b) (Int64.to_int (g regs a) land 0xffff)
  | Op.Store32 -> fun regs -> A.set_i32_from mem (gp regs b) regs a
  | Op.Store64 -> fun regs -> A.set_i64_from mem (gp regs b) regs a
  | Op.Gep ->
    let scale = B.unpack_scale i.B.lit and offset = B.unpack_offset i.B.lit in
    fun regs ->
      s regs a
        (Int64.add (g regs b) (Int64.of_int ((Int64.to_int (g regs c) * scale) + offset)))
  | Op.GepConst ->
    let lit = Int64.of_int i.B.lit in
    fun regs -> s regs a (Int64.add (g regs b) lit)
  | Op.LoadIdx8 ->
    let scale = B.unpack_scale i.B.lit and offset = B.unpack_offset i.B.lit in
    fun regs ->
      s regs a
        (Int64.of_int
           (sext8 (A.get_i8 mem (gp regs b + (Int64.to_int (g regs c) * scale) + offset))))
  | Op.LoadIdx16 ->
    let scale = B.unpack_scale i.B.lit and offset = B.unpack_offset i.B.lit in
    fun regs ->
      s regs a
        (Int64.of_int
           (sext16 (A.get_i16 mem (gp regs b + (Int64.to_int (g regs c) * scale) + offset))))
  | Op.LoadIdx32 ->
    let scale = B.unpack_scale i.B.lit and offset = B.unpack_offset i.B.lit in
    fun regs ->
      s regs a
        (Int64.of_int (A.get_i32 mem (gp regs b + (Int64.to_int (g regs c) * scale) + offset)))
  | Op.LoadIdx64 ->
    let scale = B.unpack_scale i.B.lit and offset = B.unpack_offset i.B.lit in
    fun regs -> A.get_i64_to mem (gp regs b + (Int64.to_int (g regs c) * scale) + offset) regs a
  | Op.StoreIdx8 ->
    let scale = B.unpack_scale i.B.lit and offset = B.unpack_offset i.B.lit in
    fun regs ->
      A.set_i8 mem
        (gp regs b + (Int64.to_int (g regs c) * scale) + offset)
        (Int64.to_int (g regs a) land 0xff)
  | Op.StoreIdx16 ->
    let scale = B.unpack_scale i.B.lit and offset = B.unpack_offset i.B.lit in
    fun regs ->
      A.set_i16 mem
        (gp regs b + (Int64.to_int (g regs c) * scale) + offset)
        (Int64.to_int (g regs a) land 0xffff)
  | Op.StoreIdx32 ->
    let scale = B.unpack_scale i.B.lit and offset = B.unpack_offset i.B.lit in
    fun regs -> A.set_i32_from mem (gp regs b + (Int64.to_int (g regs c) * scale) + offset) regs a
  | Op.StoreIdx64 ->
    let scale = B.unpack_scale i.B.lit and offset = B.unpack_offset i.B.lit in
    fun regs -> A.set_i64_from mem (gp regs b + (Int64.to_int (g regs c) * scale) + offset) regs a
  | Op.CallV0 | Op.CallV1 | Op.CallV2 | Op.CallV3 | Op.CallV4 | Op.CallV5 | Op.CallR0
  | Op.CallR1 | Op.CallR2 | Op.CallR3 | Op.CallR4 | Op.Jmp | Op.CondJmp | Op.JmpEq
  | Op.JmpNe | Op.JmpSlt | Op.JmpSle | Op.JmpSgt | Op.JmpSge | Op.RetVal | Op.RetVoid
  | Op.AbortOp ->
    ignore (d, e);
    invalid_arg "Closure_compile.step_of: control or call instruction"

(* Calls resolve their runtime target variant once at compile time. *)
let call_step (prog : B.t) (i : B.insn) : Bytes.t -> unit =
  let a = i.B.a and b = i.B.b and c = i.B.c and d = i.B.d and e = i.B.e in
  let fn = prog.B.rt_table.(i.B.lit) in
  match (i.B.op, fn) with
  | Op.CallV0, Rt_fn.F0 f -> fun _ -> ignore (f ())
  | Op.CallV1, Rt_fn.F1 f -> fun regs -> ignore (f (g regs a))
  | Op.CallV2, Rt_fn.F2 f -> fun regs -> ignore (f (g regs a) (g regs b))
  | Op.CallV3, Rt_fn.F3 f -> fun regs -> ignore (f (g regs a) (g regs b) (g regs c))
  | Op.CallV4, Rt_fn.F4 f ->
    fun regs -> ignore (f (g regs a) (g regs b) (g regs c) (g regs d))
  | Op.CallV5, Rt_fn.F5 f ->
    fun regs -> ignore (f (g regs a) (g regs b) (g regs c) (g regs d) (g regs e))
  | Op.CallR0, Rt_fn.F0 f -> fun regs -> s regs a (f ())
  | Op.CallR1, Rt_fn.F1 f -> fun regs -> s regs a (f (g regs b))
  | Op.CallR2, Rt_fn.F2 f -> fun regs -> s regs a (f (g regs b) (g regs c))
  | Op.CallR3, Rt_fn.F3 f -> fun regs -> s regs a (f (g regs b) (g regs c) (g regs d))
  | Op.CallR4, Rt_fn.F4 f ->
    fun regs -> s regs a (f (g regs b) (g regs c) (g regs d) (g regs e))
  | _ -> invalid_arg "Closure_compile.call_step: arity mismatch"

(* Superinstruction fusion: the closure backend's analogue of machine
   code keeping a producer's result in a register for its consumer.
   The fused closure computes the first instruction's result into an
   unboxed local, still writes its register slot (other readers may
   exist), and feeds the consumer without a second dispatch. *)
let fused_pair mem (i1 : B.insn) (i2 : B.insn) : (Bytes.t -> unit) option =
  let open Op in
  match (i1.B.op, i2.B.op) with
  | Mov, Mov ->
    let a1 = i1.B.a and b1 = i1.B.b and a2 = i2.B.a and b2 = i2.B.b in
    Some
      (fun regs ->
        s regs a1 (g regs b1);
        s regs a2 (g regs b2))
  | LoadIdx64, consumer when i2.B.b = i1.B.a || i2.B.c = i1.B.a -> (
    let dst = i1.B.a and base = i1.B.b and idx = i1.B.c in
    let scale = B.unpack_scale i1.B.lit and offset = B.unpack_offset i1.B.lit in
    (* the loaded word goes straight to its register slot, and the
       consumer reads its operands back from the register file: an
       int64 returned by the load would be boxed *)
    let load regs =
      A.get_i64_to mem (gp regs base + (Int64.to_int (g regs idx) * scale) + offset) regs dst
    in
    let a2 = i2.B.a and b2 = i2.B.b and c2 = i2.B.c in
    (* one closure per operator, as below *)
    match consumer with
    | Add_i64 ->
      Some
        (fun regs ->
          load regs;
          s regs a2 (Int64.add (g regs b2) (g regs c2)))
    | Sub_i64 ->
      Some
        (fun regs ->
          load regs;
          s regs a2 (Int64.sub (g regs b2) (g regs c2)))
    | Mul_i64 ->
      Some
        (fun regs ->
          load regs;
          s regs a2 (Int64.mul (g regs b2) (g regs c2)))
    | And64 ->
      Some
        (fun regs ->
          load regs;
          s regs a2 (Int64.logand (g regs b2) (g regs c2)))
    | Or64 ->
      Some
        (fun regs ->
          load regs;
          s regs a2 (Int64.logor (g regs b2) (g regs c2)))
    | Xor64 ->
      Some
        (fun regs ->
          load regs;
          s regs a2 (Int64.logxor (g regs b2) (g regs c2)))
    | AddChk_i64 ->
      Some
        (fun regs ->
          load regs;
          s regs a2 (S.add_chk ~width:64 (g regs b2) (g regs c2)))
    | SubChk_i64 ->
      Some
        (fun regs ->
          load regs;
          s regs a2 (S.sub_chk ~width:64 (g regs b2) (g regs c2)))
    | MulChk_i64 ->
      Some
        (fun regs ->
          load regs;
          s regs a2 (S.mul_chk ~width:64 (g regs b2) (g regs c2)))
    | CmpEq ->
      Some
        (fun regs ->
          load regs;
          s regs a2 (S.bool_i64 (Int64.equal (g regs b2) (g regs c2))))
    | CmpNe ->
      Some
        (fun regs ->
          load regs;
          s regs a2 (S.bool_i64 (not (Int64.equal (g regs b2) (g regs c2)))))
    | CmpSlt ->
      Some
        (fun regs ->
          load regs;
          s regs a2 (S.bool_i64 (Int64.compare (g regs b2) (g regs c2) < 0)))
    | CmpSle ->
      Some
        (fun regs ->
          load regs;
          s regs a2 (S.bool_i64 (Int64.compare (g regs b2) (g regs c2) <= 0)))
    | CmpSgt ->
      Some
        (fun regs ->
          load regs;
          s regs a2 (S.bool_i64 (Int64.compare (g regs b2) (g regs c2) > 0)))
    | CmpSge ->
      Some
        (fun regs ->
          load regs;
          s regs a2 (S.bool_i64 (Int64.compare (g regs b2) (g regs c2) >= 0)))
    | _ -> None)
  | And64, (AddChk_i64 | SubChk_i64 | MulChk_i64 | Add_i64 | Mul_i64) -> (
    let dst = i1.B.a and b1 = i1.B.b and c1 = i1.B.c in
    let a2 = i2.B.a and b2 = i2.B.b and c2 = i2.B.c in
    let f =
      match i2.B.op with
      | AddChk_i64 -> fun a b -> S.add_chk ~width:64 a b
      | SubChk_i64 -> fun a b -> S.sub_chk ~width:64 a b
      | MulChk_i64 -> fun a b -> S.mul_chk ~width:64 a b
      | Add_i64 -> Int64.add
      | Mul_i64 -> Int64.mul
      | _ -> assert false
    in
    if b2 = dst && c2 <> dst then
      Some
        (fun regs ->
          let v = Int64.logand (g regs b1) (g regs c1) in
          s regs dst v;
          s regs a2 (f v (g regs c2)))
    else if c2 = dst && b2 <> dst then
      Some
        (fun regs ->
          let v = Int64.logand (g regs b1) (g regs c1) in
          s regs dst v;
          s regs a2 (f (g regs b2) v))
    else None)
  | (CmpEq | CmpNe | CmpSlt | CmpSle | CmpSgt | CmpSge), SelectOp
    when i2.B.b = i1.B.a && i2.B.c <> i1.B.a && i2.B.d <> i1.B.a -> (
    let b1 = i1.B.b and c1 = i1.B.c and dst = i1.B.a in
    let a2 = i2.B.a and c2 = i2.B.c and d2 = i2.B.d in
    let test =
      match i1.B.op with
      | CmpEq -> fun x y -> Int64.equal x y
      | CmpNe -> fun x y -> not (Int64.equal x y)
      | CmpSlt -> fun x y -> Int64.compare x y < 0
      | CmpSle -> fun x y -> Int64.compare x y <= 0
      | CmpSgt -> fun x y -> Int64.compare x y > 0
      | CmpSge -> fun x y -> Int64.compare x y >= 0
      | _ -> assert false
    in
    Some
      (fun regs ->
        let t = test (g regs b1) (g regs c1) in
        s regs dst (S.bool_i64 t);
        s regs a2 (if t then g regs c2 else g regs d2)))
  | (Add_i64 | Sub_i64 | Mul_i64 | And64 | Or64 | Xor64), Mov when i2.B.b = i1.B.a -> (
    let dst = i1.B.a and b1 = i1.B.b and c1 = i1.B.c and a2 = i2.B.a in
    (* one closure per operator: an operator passed as a function value
       would box both operands and the result of every loop-counter
       increment *)
    match i1.B.op with
    | Add_i64 ->
      Some
        (fun regs ->
          let v = Int64.add (g regs b1) (g regs c1) in
          s regs dst v;
          s regs a2 v)
    | Sub_i64 ->
      Some
        (fun regs ->
          let v = Int64.sub (g regs b1) (g regs c1) in
          s regs dst v;
          s regs a2 v)
    | Mul_i64 ->
      Some
        (fun regs ->
          let v = Int64.mul (g regs b1) (g regs c1) in
          s regs dst v;
          s regs a2 v)
    | And64 ->
      Some
        (fun regs ->
          let v = Int64.logand (g regs b1) (g regs c1) in
          s regs dst v;
          s regs a2 v)
    | Or64 ->
      Some
        (fun regs ->
          let v = Int64.logor (g regs b1) (g regs c1) in
          s regs dst v;
          s regs a2 v)
    | Xor64 ->
      Some
        (fun regs ->
          let v = Int64.logxor (g regs b1) (g regs c1) in
          s regs dst v;
          s regs a2 v)
    | _ -> None)
  | _ -> None

let is_call (i : B.insn) =
  match i.B.op with
  | Op.CallV0 | Op.CallV1 | Op.CallV2 | Op.CallV3 | Op.CallV4 | Op.CallV5 | Op.CallR0
  | Op.CallR1 | Op.CallR2 | Op.CallR3 | Op.CallR4 ->
    true
  | _ -> false

let is_control (i : B.insn) =
  match i.B.op with
  | Op.Jmp | Op.CondJmp | Op.JmpEq | Op.JmpNe | Op.JmpSlt | Op.JmpSle | Op.JmpSgt
  | Op.JmpSge | Op.RetVal | Op.RetVoid | Op.AbortOp ->
    true
  | _ -> false

let compile (prog : B.t) mem =
  let n = Array.length prog.B.code in
  let code = Array.init n (B.get prog) in
  let result_off = prog.B.n_reg_bytes in
  let total_reg_bytes = result_off + 8 in
  (* chunk leaders: entry, branch targets, fall-through points *)
  let leader = Array.make (Stdlib.max n 1) false in
  if n > 0 then leader.(0) <- true;
  Array.iteri
    (fun idx (i : B.insn) ->
      (match i.B.op with
      | Op.Jmp -> if i.B.a < n then leader.(i.B.a) <- true
      | Op.CondJmp ->
        if i.B.b < n then leader.(i.B.b) <- true;
        if i.B.c < n then leader.(i.B.c) <- true
      | Op.JmpEq | Op.JmpNe | Op.JmpSlt | Op.JmpSle | Op.JmpSgt | Op.JmpSge ->
        if i.B.c < n then leader.(i.B.c) <- true;
        if i.B.d < n then leader.(i.B.d) <- true
      | _ -> ());
      if is_control i && idx + 1 < n then leader.(idx + 1) <- true)
    code;
  let chunk_of_code = Array.make (Stdlib.max n 1) (-1) in
  let n_chunks = ref 0 in
  for idx = 0 to n - 1 do
    if leader.(idx) then begin
      chunk_of_code.(idx) <- !n_chunks;
      incr n_chunks
    end
  done;
  let chunks = Array.make (Stdlib.max !n_chunks 1) (fun (_ : Bytes.t) -> -1) in
  let idx = ref 0 in
  while !idx < n do
    let start = !idx in
    let chunk_id = chunk_of_code.(start) in
    (* collect straight-line steps *)
    let steps = ref [] in
    let stop = ref false in
    while not !stop do
      let i = code.(!idx) in
      if is_control i then stop := true
      else begin
        (* try to fuse with the following instruction *)
        let next_ok =
          !idx + 1 < n
          && (not leader.(!idx + 1))
          && (not (is_control code.(!idx + 1)))
          && (not (is_call i))
          && not (is_call code.(!idx + 1))
        in
        let fused = if next_ok then fused_pair mem i code.(!idx + 1) else None in
        (match fused with
        | Some step ->
          steps := step :: !steps;
          idx := !idx + 2
        | None ->
          let step = if is_call i then call_step prog i else step_of mem i in
          steps := step :: !steps;
          incr idx);
        if !idx >= n || leader.(!idx) then stop := true
      end
    done;
    (* terminal closure: Bytes.t -> int *)
    let terminal : Bytes.t -> int =
      if !idx < n && is_control code.(!idx) then begin
        let i = code.(!idx) in
        let a = i.B.a and b = i.B.b and c = i.B.c and d = i.B.d in
        let t = i.B.op in
        incr idx;
        match t with
        | Op.Jmp ->
          let target = chunk_of_code.(a) in
          fun _ -> target
        | Op.CondJmp ->
          let ct = chunk_of_code.(b) and cf = chunk_of_code.(c) in
          fun regs -> if Int64.equal (g regs a) 0L then cf else ct
        | Op.JmpEq ->
          let ct = chunk_of_code.(c) and cf = chunk_of_code.(d) in
          fun regs -> if Int64.equal (g regs a) (g regs b) then ct else cf
        | Op.JmpNe ->
          let ct = chunk_of_code.(c) and cf = chunk_of_code.(d) in
          fun regs -> if Int64.equal (g regs a) (g regs b) then cf else ct
        | Op.JmpSlt ->
          let ct = chunk_of_code.(c) and cf = chunk_of_code.(d) in
          fun regs -> if Int64.compare (g regs a) (g regs b) < 0 then ct else cf
        | Op.JmpSle ->
          let ct = chunk_of_code.(c) and cf = chunk_of_code.(d) in
          fun regs -> if Int64.compare (g regs a) (g regs b) <= 0 then ct else cf
        | Op.JmpSgt ->
          let ct = chunk_of_code.(c) and cf = chunk_of_code.(d) in
          fun regs -> if Int64.compare (g regs a) (g regs b) > 0 then ct else cf
        | Op.JmpSge ->
          let ct = chunk_of_code.(c) and cf = chunk_of_code.(d) in
          fun regs -> if Int64.compare (g regs a) (g regs b) >= 0 then ct else cf
        | Op.RetVal ->
          fun regs ->
            s regs result_off (g regs a);
            -1
        | Op.RetVoid ->
          fun regs ->
            s regs result_off 0L;
            -1
        | Op.AbortOp ->
          let msg = prog.B.messages.(a) in
          fun _ -> raise (Trap.Error msg)
        | _ -> assert false
      end
      else begin
        (* fall through to the next chunk *)
        let next = if !idx < n then chunk_of_code.(!idx) else -1 in
        fun _ -> next
      end
    in
    (* compose the chunk: one closure invocation per instruction, with
       small chunks fully unrolled *)
    let body =
      match Array.of_list (List.rev !steps) with
      | [||] -> terminal
      | [| s1 |] ->
        fun regs ->
          s1 regs;
          terminal regs
      | [| s1; s2 |] ->
        fun regs ->
          s1 regs;
          s2 regs;
          terminal regs
      | [| s1; s2; s3 |] ->
        fun regs ->
          s1 regs;
          s2 regs;
          s3 regs;
          terminal regs
      | [| s1; s2; s3; s4 |] ->
        fun regs ->
          s1 regs;
          s2 regs;
          s3 regs;
          s4 regs;
          terminal regs
      | [| s1; s2; s3; s4; s5 |] ->
        fun regs ->
          s1 regs;
          s2 regs;
          s3 regs;
          s4 regs;
          s5 regs;
          terminal regs
      | [| s1; s2; s3; s4; s5; s6 |] ->
        fun regs ->
          s1 regs;
          s2 regs;
          s3 regs;
          s4 regs;
          s5 regs;
          s6 regs;
          terminal regs
      | arr ->
        let n_steps = Array.length arr in
        fun regs ->
          for k = 0 to n_steps - 1 do
            (Array.unsafe_get arr k) regs
          done;
          terminal regs
    in
    chunks.(chunk_id) <- body
  done;
  { prog; chunks; result_off; total_reg_bytes }

let n_reg_bytes t = t.total_reg_bytes

let scratch t = Bytes.make (Stdlib.max 16 t.total_reg_bytes) '\000'

let run t ?regs ~args () =
  let regs = match regs with Some r -> r | None -> scratch t in
  if Bytes.length regs < t.total_reg_bytes then
    invalid_arg
      (Printf.sprintf "Closure_compile.run: a %d-byte register file for %s, which needs %d"
         (Bytes.length regs) t.prog.B.name t.total_reg_bytes);
  Array.iteri (fun i c -> s regs (8 * i) c) t.prog.B.const_pool;
  Array.iteri
    (fun i off -> s regs off (if i < Array.length args then args.(i) else 0L))
    t.prog.B.param_offsets;
  let chunks = t.chunks in
  let pc = ref 0 in
  while !pc >= 0 do
    pc := (Array.unsafe_get chunks !pc) regs
  done;
  g regs t.result_off
