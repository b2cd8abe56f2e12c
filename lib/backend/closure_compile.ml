module A = Aeq_mem.Arena
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

(* [Interp]'s integer primitives, copied rather than shared: a call
   into another module is not inlined under -opaque and would box its
   [int64] operands and result on every row. Each computes what its
   [Semantics] counterpart computes, traps included. [sh] is
   [64 - width]. *)
let[@inline] wrap sh v = Int64.shift_right (Int64.shift_left v sh) sh

let[@inline] zext sh v = Int64.shift_right_logical (Int64.shift_left v sh) sh

let[@inline] bool_i64 b = if b then 1L else 0L

let[@inline] add sh a b = wrap sh (Int64.add a b)

let[@inline] sub sh a b = wrap sh (Int64.sub a b)

let[@inline] mul sh a b = wrap sh (Int64.mul a b)

let[@inline] div sh a b =
  if Int64.equal b 0L then Trap.division_by_zero ();
  wrap sh (Int64.div a b)

let[@inline] rem sh a b =
  if Int64.equal b 0L then Trap.division_by_zero ();
  wrap sh (Int64.rem a b)

let[@inline] shl sh a b = wrap sh (Int64.shift_left a (Int64.to_int b land 63))

let[@inline] lshr sh a b = wrap sh (Int64.shift_right_logical (zext sh a) (Int64.to_int b land 63))

(* unsigned order at a width is signed order on the zero-extended
   values with the sign bit flipped *)
let[@inline] ukey sh v = Int64.logxor (zext sh v) Int64.min_int

let[@inline] fits32 v = Int64.equal (wrap 32 v) v

let[@inline] add_ovf32 a b = not (fits32 (Int64.add a b))

let[@inline] sub_ovf32 a b = not (fits32 (Int64.sub a b))

let[@inline] mul_ovf32 a b = not (fits32 (Int64.mul a b))

(* the sum's sign differs from both operands' *)
let[@inline] add_ovf64 a b =
  let r = Int64.add a b in
  Int64.logand (Int64.logxor a r) (Int64.logxor b r) < 0L

(* the operands' signs differ, and the difference's from [a]'s *)
let[@inline] sub_ovf64 a b =
  let r = Int64.sub a b in
  Int64.logand (Int64.logxor a b) (Int64.logxor a r) < 0L

let[@inline] mul_ovf64 a b =
  (not (Int64.equal a 0L))
  && ((not (Int64.equal (Int64.div (Int64.mul a b) a) b))
     || (Int64.equal a (-1L) && Int64.equal b Int64.min_int)
     || (Int64.equal b (-1L) && Int64.equal a Int64.min_int))

let[@inline] add_chk32 a b =
  if add_ovf32 a b then Trap.overflow ();
  Int64.add a b

let[@inline] add_chk64 a b =
  if add_ovf64 a b then Trap.overflow ();
  Int64.add a b

let[@inline] sub_chk32 a b =
  if sub_ovf32 a b then Trap.overflow ();
  Int64.sub a b

let[@inline] sub_chk64 a b =
  if sub_ovf64 a b then Trap.overflow ();
  Int64.sub a b

let[@inline] mul_chk32 a b =
  if mul_ovf32 a b then Trap.overflow ();
  Int64.mul a b

let[@inline] mul_chk64 a b =
  if mul_ovf64 a b then Trap.overflow ();
  Int64.mul a b

(* Non-control instructions compile to [Bytes.t -> unit] with every
   operand offset and literal captured. *)
let step_of mem (i : B.insn) : Bytes.t -> unit =
  let a = i.B.a and b = i.B.b and c = i.B.c and d = i.B.d and e = i.B.e in
  match i.B.op with
  | Op.Mov -> fun regs -> s regs a (g regs b)
  | Op.Add_i8 -> fun regs -> s regs a (add 56 (g regs b) (g regs c))
  | Op.Add_i16 -> fun regs -> s regs a (add 48 (g regs b) (g regs c))
  | Op.Add_i32 -> fun regs -> s regs a (add 32 (g regs b) (g regs c))
  | Op.Add_i64 -> fun regs -> s regs a (Int64.add (g regs b) (g regs c))
  | Op.Sub_i8 -> fun regs -> s regs a (sub 56 (g regs b) (g regs c))
  | Op.Sub_i16 -> fun regs -> s regs a (sub 48 (g regs b) (g regs c))
  | Op.Sub_i32 -> fun regs -> s regs a (sub 32 (g regs b) (g regs c))
  | Op.Sub_i64 -> fun regs -> s regs a (Int64.sub (g regs b) (g regs c))
  | Op.Mul_i8 -> fun regs -> s regs a (mul 56 (g regs b) (g regs c))
  | Op.Mul_i16 -> fun regs -> s regs a (mul 48 (g regs b) (g regs c))
  | Op.Mul_i32 -> fun regs -> s regs a (mul 32 (g regs b) (g regs c))
  | Op.Mul_i64 -> fun regs -> s regs a (Int64.mul (g regs b) (g regs c))
  | Op.Div_i8 -> fun regs -> s regs a (div 56 (g regs b) (g regs c))
  | Op.Div_i16 -> fun regs -> s regs a (div 48 (g regs b) (g regs c))
  | Op.Div_i32 -> fun regs -> s regs a (div 32 (g regs b) (g regs c))
  | Op.Div_i64 -> fun regs -> s regs a (div 0 (g regs b) (g regs c))
  | Op.Rem_i8 -> fun regs -> s regs a (rem 56 (g regs b) (g regs c))
  | Op.Rem_i16 -> fun regs -> s regs a (rem 48 (g regs b) (g regs c))
  | Op.Rem_i32 -> fun regs -> s regs a (rem 32 (g regs b) (g regs c))
  | Op.Rem_i64 -> fun regs -> s regs a (rem 0 (g regs b) (g regs c))
  | Op.And64 -> fun regs -> s regs a (Int64.logand (g regs b) (g regs c))
  | Op.Or64 -> fun regs -> s regs a (Int64.logor (g regs b) (g regs c))
  | Op.Xor64 -> fun regs -> s regs a (Int64.logxor (g regs b) (g regs c))
  | Op.Shl_i8 -> fun regs -> s regs a (shl 56 (g regs b) (g regs c))
  | Op.Shl_i16 -> fun regs -> s regs a (shl 48 (g regs b) (g regs c))
  | Op.Shl_i32 -> fun regs -> s regs a (shl 32 (g regs b) (g regs c))
  | Op.Shl_i64 -> fun regs -> s regs a (shl 0 (g regs b) (g regs c))
  | Op.LShr_i8 -> fun regs -> s regs a (lshr 56 (g regs b) (g regs c))
  | Op.LShr_i16 -> fun regs -> s regs a (lshr 48 (g regs b) (g regs c))
  | Op.LShr_i32 -> fun regs -> s regs a (lshr 32 (g regs b) (g regs c))
  | Op.LShr_i64 -> fun regs -> s regs a (lshr 0 (g regs b) (g regs c))
  | Op.AShr64 ->
    fun regs -> s regs a (Int64.shift_right (g regs b) (Int64.to_int (g regs c) land 63))
  | Op.AddChk_i32 -> fun regs -> s regs a (add_chk32 (g regs b) (g regs c))
  | Op.AddChk_i64 -> fun regs -> s regs a (add_chk64 (g regs b) (g regs c))
  | Op.SubChk_i32 -> fun regs -> s regs a (sub_chk32 (g regs b) (g regs c))
  | Op.SubChk_i64 -> fun regs -> s regs a (sub_chk64 (g regs b) (g regs c))
  | Op.MulChk_i32 -> fun regs -> s regs a (mul_chk32 (g regs b) (g regs c))
  | Op.MulChk_i64 -> fun regs -> s regs a (mul_chk64 (g regs b) (g regs c))
  | Op.OvfAdd_i32 ->
    fun regs -> s regs a (bool_i64 (add_ovf32 (g regs b) (g regs c)))
  | Op.OvfAdd_i64 ->
    fun regs -> s regs a (bool_i64 (add_ovf64 (g regs b) (g regs c)))
  | Op.OvfSub_i32 ->
    fun regs -> s regs a (bool_i64 (sub_ovf32 (g regs b) (g regs c)))
  | Op.OvfSub_i64 ->
    fun regs -> s regs a (bool_i64 (sub_ovf64 (g regs b) (g regs c)))
  | Op.OvfMul_i32 ->
    fun regs -> s regs a (bool_i64 (mul_ovf32 (g regs b) (g regs c)))
  | Op.OvfMul_i64 ->
    fun regs -> s regs a (bool_i64 (mul_ovf64 (g regs b) (g regs c)))
  | Op.FAdd -> fun regs -> sf regs a (gf regs b +. gf regs c)
  | Op.FSub -> fun regs -> sf regs a (gf regs b -. gf regs c)
  | Op.FMul -> fun regs -> sf regs a (gf regs b *. gf regs c)
  | Op.FDiv -> fun regs -> sf regs a (gf regs b /. gf regs c)
  | Op.CmpEq -> fun regs -> s regs a (bool_i64 (Int64.equal (g regs b) (g regs c)))
  | Op.CmpNe -> fun regs -> s regs a (bool_i64 (not (Int64.equal (g regs b) (g regs c))))
  | Op.CmpSlt -> fun regs -> s regs a (bool_i64 (Int64.compare (g regs b) (g regs c) < 0))
  | Op.CmpSle -> fun regs -> s regs a (bool_i64 (Int64.compare (g regs b) (g regs c) <= 0))
  | Op.CmpSgt -> fun regs -> s regs a (bool_i64 (Int64.compare (g regs b) (g regs c) > 0))
  | Op.CmpSge -> fun regs -> s regs a (bool_i64 (Int64.compare (g regs b) (g regs c) >= 0))
  | Op.CmpUlt_i8 -> fun regs -> s regs a (bool_i64 (ukey 56 (g regs b) < ukey 56 (g regs c)))
  | Op.CmpUlt_i16 ->
    fun regs -> s regs a (bool_i64 (ukey 48 (g regs b) < ukey 48 (g regs c)))
  | Op.CmpUlt_i32 ->
    fun regs -> s regs a (bool_i64 (ukey 32 (g regs b) < ukey 32 (g regs c)))
  | Op.CmpUlt_i64 ->
    fun regs -> s regs a (bool_i64 (ukey 0 (g regs b) < ukey 0 (g regs c)))
  | Op.CmpUle_i8 -> fun regs -> s regs a (bool_i64 (ukey 56 (g regs b) <= ukey 56 (g regs c)))
  | Op.CmpUle_i16 ->
    fun regs -> s regs a (bool_i64 (ukey 48 (g regs b) <= ukey 48 (g regs c)))
  | Op.CmpUle_i32 ->
    fun regs -> s regs a (bool_i64 (ukey 32 (g regs b) <= ukey 32 (g regs c)))
  | Op.CmpUle_i64 ->
    fun regs -> s regs a (bool_i64 (ukey 0 (g regs b) <= ukey 0 (g regs c)))
  | Op.CmpUgt_i8 -> fun regs -> s regs a (bool_i64 (ukey 56 (g regs b) > ukey 56 (g regs c)))
  | Op.CmpUgt_i16 ->
    fun regs -> s regs a (bool_i64 (ukey 48 (g regs b) > ukey 48 (g regs c)))
  | Op.CmpUgt_i32 ->
    fun regs -> s regs a (bool_i64 (ukey 32 (g regs b) > ukey 32 (g regs c)))
  | Op.CmpUgt_i64 ->
    fun regs -> s regs a (bool_i64 (ukey 0 (g regs b) > ukey 0 (g regs c)))
  | Op.CmpUge_i8 -> fun regs -> s regs a (bool_i64 (ukey 56 (g regs b) >= ukey 56 (g regs c)))
  | Op.CmpUge_i16 ->
    fun regs -> s regs a (bool_i64 (ukey 48 (g regs b) >= ukey 48 (g regs c)))
  | Op.CmpUge_i32 ->
    fun regs -> s regs a (bool_i64 (ukey 32 (g regs b) >= ukey 32 (g regs c)))
  | Op.CmpUge_i64 ->
    fun regs -> s regs a (bool_i64 (ukey 0 (g regs b) >= ukey 0 (g regs c)))
  | Op.FCmpEq -> fun regs -> s regs a (bool_i64 (gf regs b = gf regs c))
  | Op.FCmpNe -> fun regs -> s regs a (bool_i64 (gf regs b <> gf regs c))
  | Op.FCmpLt -> fun regs -> s regs a (bool_i64 (gf regs b < gf regs c))
  | Op.FCmpLe -> fun regs -> s regs a (bool_i64 (gf regs b <= gf regs c))
  | Op.FCmpGt -> fun regs -> s regs a (bool_i64 (gf regs b > gf regs c))
  | Op.FCmpGe -> fun regs -> s regs a (bool_i64 (gf regs b >= gf regs c))
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

(* Calls resolve their runtime target variant once at compile time
   and hand the helper the register file and the instruction's operand
   offsets ([Rt_fn]'s convention): nothing is boxed. *)
let call_step (prog : B.t) (i : B.insn) : Bytes.t -> unit =
  let a = i.B.a and b = i.B.b and c = i.B.c and d = i.B.d and e = i.B.e in
  let fn = prog.B.rt_table.(i.B.lit) in
  match (i.B.op, fn) with
  | Op.CallV0, Rt_fn.F0 f -> fun regs -> ignore (f regs)
  | Op.CallV1, Rt_fn.F1 f -> fun regs -> ignore (f regs a)
  | Op.CallV2, Rt_fn.F2 f -> fun regs -> ignore (f regs a b)
  | Op.CallV3, Rt_fn.F3 f -> fun regs -> ignore (f regs a b c)
  | Op.CallV4, Rt_fn.F4 f -> fun regs -> ignore (f regs a b c d)
  | Op.CallV5, Rt_fn.F5 f -> fun regs -> ignore (f regs a b c d e)
  | Op.CallR0, Rt_fn.F0 f -> fun regs -> s regs a (Int64.of_int (f regs))
  | Op.CallR1, Rt_fn.F1 f -> fun regs -> s regs a (Int64.of_int (f regs b))
  | Op.CallR2, Rt_fn.F2 f -> fun regs -> s regs a (Int64.of_int (f regs b c))
  | Op.CallR3, Rt_fn.F3 f -> fun regs -> s regs a (Int64.of_int (f regs b c d))
  | Op.CallR4, Rt_fn.F4 f -> fun regs -> s regs a (Int64.of_int (f regs b c d e))
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
          s regs a2 (add_chk64 (g regs b2) (g regs c2)))
    | SubChk_i64 ->
      Some
        (fun regs ->
          load regs;
          s regs a2 (sub_chk64 (g regs b2) (g regs c2)))
    | MulChk_i64 ->
      Some
        (fun regs ->
          load regs;
          s regs a2 (mul_chk64 (g regs b2) (g regs c2)))
    | CmpEq ->
      Some
        (fun regs ->
          load regs;
          s regs a2 (bool_i64 (Int64.equal (g regs b2) (g regs c2))))
    | CmpNe ->
      Some
        (fun regs ->
          load regs;
          s regs a2 (bool_i64 (not (Int64.equal (g regs b2) (g regs c2)))))
    | CmpSlt ->
      Some
        (fun regs ->
          load regs;
          s regs a2 (bool_i64 (Int64.compare (g regs b2) (g regs c2) < 0)))
    | CmpSle ->
      Some
        (fun regs ->
          load regs;
          s regs a2 (bool_i64 (Int64.compare (g regs b2) (g regs c2) <= 0)))
    | CmpSgt ->
      Some
        (fun regs ->
          load regs;
          s regs a2 (bool_i64 (Int64.compare (g regs b2) (g regs c2) > 0)))
    | CmpSge ->
      Some
        (fun regs ->
          load regs;
          s regs a2 (bool_i64 (Int64.compare (g regs b2) (g regs c2) >= 0)))
    | _ -> None)
  | And64, (AddChk_i64 | SubChk_i64 | MulChk_i64 | Add_i64 | Mul_i64)
    when (i2.B.b = i1.B.a) <> (i2.B.c = i1.B.a) -> (
    let dst = i1.B.a and b1 = i1.B.b and c1 = i1.B.c in
    let a2 = i2.B.a and b2 = i2.B.b and c2 = i2.B.c in
    (* the mask goes to its register slot and the consumer reads its
       operands back, one closure per operator, as for the loads above *)
    let mask regs = s regs dst (Int64.logand (g regs b1) (g regs c1)) in
    match i2.B.op with
    | AddChk_i64 ->
      Some
        (fun regs ->
          mask regs;
          s regs a2 (add_chk64 (g regs b2) (g regs c2)))
    | SubChk_i64 ->
      Some
        (fun regs ->
          mask regs;
          s regs a2 (sub_chk64 (g regs b2) (g regs c2)))
    | MulChk_i64 ->
      Some
        (fun regs ->
          mask regs;
          s regs a2 (mul_chk64 (g regs b2) (g regs c2)))
    | Add_i64 ->
      Some
        (fun regs ->
          mask regs;
          s regs a2 (Int64.add (g regs b2) (g regs c2)))
    | Mul_i64 ->
      Some
        (fun regs ->
          mask regs;
          s regs a2 (Int64.mul (g regs b2) (g regs c2)))
    | _ -> None)
  | (CmpEq | CmpNe | CmpSlt | CmpSle | CmpSgt | CmpSge), SelectOp
    when i2.B.b = i1.B.a && i2.B.c <> i1.B.a && i2.B.d <> i1.B.a -> (
    let b1 = i1.B.b and c1 = i1.B.c and dst = i1.B.a in
    let a2 = i2.B.a and c2 = i2.B.c and d2 = i2.B.d in
    (* the test's outcome passes as a bool, which is never boxed; one
       closure per comparison *)
    let select regs t =
      s regs dst (bool_i64 t);
      s regs a2 (if t then g regs c2 else g regs d2)
    in
    match i1.B.op with
    | CmpEq -> Some (fun regs -> select regs (Int64.equal (g regs b1) (g regs c1)))
    | CmpNe -> Some (fun regs -> select regs (not (Int64.equal (g regs b1) (g regs c1))))
    | CmpSlt -> Some (fun regs -> select regs (Int64.compare (g regs b1) (g regs c1) < 0))
    | CmpSle -> Some (fun regs -> select regs (Int64.compare (g regs b1) (g regs c1) <= 0))
    | CmpSgt -> Some (fun regs -> select regs (Int64.compare (g regs b1) (g regs c1) > 0))
    | CmpSge -> Some (fun regs -> select regs (Int64.compare (g regs b1) (g regs c1) >= 0))
    | _ -> None)
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

let param_offsets t = t.prog.B.param_offsets

let check_size t regs =
  if Bytes.length regs < t.total_reg_bytes then
    invalid_arg
      (Printf.sprintf "Closure_compile.run: a %d-byte register file for %s, which needs %d"
         (Bytes.length regs) t.prog.B.name t.total_reg_bytes)

(* the constant pool goes in, the chunks run; nothing is allocated *)
let enter t regs =
  let pool = t.prog.B.const_pool in
  for i = 0 to Array.length pool - 1 do
    s regs (8 * i) (Array.unsafe_get pool i)
  done;
  let chunks = t.chunks in
  let pc = ref 0 in
  while !pc >= 0 do
    pc := (Array.unsafe_get chunks !pc) regs
  done

let exec t regs =
  check_size t regs;
  enter t regs

let run t ?regs ~args () =
  let regs = match regs with Some r -> r | None -> scratch t in
  check_size t regs;
  let params = t.prog.B.param_offsets in
  for i = 0 to Array.length params - 1 do
    s regs params.(i) (if i < Array.length args then args.(i) else 0L)
  done;
  enter t regs;
  g regs t.result_off
