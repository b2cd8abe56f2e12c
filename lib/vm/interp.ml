module A = Aeq_mem.Arena

let scratch (p : Bytecode.t) = Bytes.make (Stdlib.max 16 p.Bytecode.n_reg_bytes) '\000'

(* Register accesses are unchecked: [Bytecode.check_registers] put
   every register operand of the program inside [n_reg_bytes] when the
   program was built, and [run] checks once that [regs] holds that
   many bytes. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] g regs off = get64u regs off

let[@inline] s regs off v = set64u regs off v

let[@inline] gf regs off = Int64.float_of_bits (get64u regs off)

let[@inline] sf regs off v = set64u regs off (Int64.bits_of_float v)

let[@inline] gp regs off = Int64.to_int (get64u regs off)

(* Sign-extending the low 8, 16 or 32 bits as an int here, not
   through [Semantics]' int64 functions, keeps a narrow column load
   or a truncation from boxing (a call into another module is not
   inlined under -opaque). [v] holds the unsigned low bits. *)
let[@inline] sext8 v = (v lxor 0x80) - 0x80

let[@inline] sext16 v = (v lxor 0x8000) - 0x8000

let[@inline] sext32 v = (v lxor 0x8000_0000) - 0x8000_0000

(* Integer arithmetic on register values, written out here rather
   than called in [Semantics] so that it inlines: an [int64] passed to
   or returned from a function in another module is boxed, and these
   run on every row. Each computes what its [Semantics] counterpart
   computes, traps included (the backend property test and the trap
   parity tests hold them to it). [sh] is [64 - width]: [wrap] keeps
   the low [width] bits sign-extended, [zext] zero-extended, and both
   are the identity at 64 bits. *)
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

(* Field decoding, written out here rather than called in [Bytecode]
   so that each arm's shifts and masks are inlined (a call into
   another module is not, under -opaque). The layout is
   [Bytecode]'s: [code] holds op (8 bits) | a (27) | b (27), [ext]
   holds c | d | e (21 bits each), and a GEP literal holds the scale in
   its low 32 bits and the offset above them. Each arm decodes only the
   fields it uses. *)
let[@inline] op_of w : Opcode.t = Obj.magic (w land 0xff)

let[@inline] fa w = (w lsr 8) land 0x7ff_ffff

let[@inline] fb w = w lsr 35

let[@inline] fc ext ip = Array.unsafe_get ext ip land 0x1f_ffff

let[@inline] fd ext ip = (Array.unsafe_get ext ip lsr 21) land 0x1f_ffff

let[@inline] fe ext ip = Array.unsafe_get ext ip lsr 42

let[@inline] scale lit = (lit lsl 31) asr 31

let[@inline] offset lit = lit asr 32

(* The dispatch loop: a function of its own rather than a closure over
   one run's state, and it returns the register offset of the [ret]
   value (-1 for a void return), not the value, which would be boxed.
   Running a morsel therefore allocates nothing. *)
let rec go (p : Bytecode.t) mem regs code ext lits tbl ip =
  let w = Array.unsafe_get code ip in
  match op_of w with
  | Opcode.Mov ->
    s regs (fa w) (g regs (fb w));
    go p mem regs code ext lits tbl (ip + 1)
  | Add_i8 ->
    s regs (fa w) (add 56 (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | Add_i16 ->
    s regs (fa w) (add 48 (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | Add_i32 ->
    s regs (fa w) (add 32 (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | Add_i64 ->
    s regs (fa w) (Int64.add (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | Sub_i8 ->
    s regs (fa w) (sub 56 (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | Sub_i16 ->
    s regs (fa w) (sub 48 (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | Sub_i32 ->
    s regs (fa w) (sub 32 (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | Sub_i64 ->
    s regs (fa w) (Int64.sub (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | Mul_i8 ->
    s regs (fa w) (mul 56 (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | Mul_i16 ->
    s regs (fa w) (mul 48 (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | Mul_i32 ->
    s regs (fa w) (mul 32 (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | Mul_i64 ->
    s regs (fa w) (Int64.mul (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | Div_i8 ->
    s regs (fa w) (div 56 (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | Div_i16 ->
    s regs (fa w) (div 48 (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | Div_i32 ->
    s regs (fa w) (div 32 (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | Div_i64 ->
    s regs (fa w) (div 0 (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | Rem_i8 ->
    s regs (fa w) (rem 56 (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | Rem_i16 ->
    s regs (fa w) (rem 48 (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | Rem_i32 ->
    s regs (fa w) (rem 32 (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | Rem_i64 ->
    s regs (fa w) (rem 0 (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | And64 ->
    s regs (fa w) (Int64.logand (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | Or64 ->
    s regs (fa w) (Int64.logor (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | Xor64 ->
    s regs (fa w) (Int64.logxor (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | Shl_i8 ->
    s regs (fa w) (shl 56 (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | Shl_i16 ->
    s regs (fa w) (shl 48 (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | Shl_i32 ->
    s regs (fa w) (shl 32 (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | Shl_i64 ->
    s regs (fa w) (shl 0 (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | LShr_i8 ->
    s regs (fa w) (lshr 56 (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | LShr_i16 ->
    s regs (fa w) (lshr 48 (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | LShr_i32 ->
    s regs (fa w) (lshr 32 (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | LShr_i64 ->
    s regs (fa w) (lshr 0 (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | AShr64 ->
    s regs (fa w) (Int64.shift_right (g regs (fb w)) (Int64.to_int (g regs (fc ext ip)) land 63));
    go p mem regs code ext lits tbl (ip + 1)
  | AddChk_i32 ->
    s regs (fa w) (add_chk32 (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | AddChk_i64 ->
    s regs (fa w) (add_chk64 (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | SubChk_i32 ->
    s regs (fa w) (sub_chk32 (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | SubChk_i64 ->
    s regs (fa w) (sub_chk64 (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | MulChk_i32 ->
    s regs (fa w) (mul_chk32 (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | MulChk_i64 ->
    s regs (fa w) (mul_chk64 (g regs (fb w)) (g regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | OvfAdd_i32 ->
    s regs (fa w) (bool_i64 (add_ovf32 (g regs (fb w)) (g regs (fc ext ip))));
    go p mem regs code ext lits tbl (ip + 1)
  | OvfAdd_i64 ->
    s regs (fa w) (bool_i64 (add_ovf64 (g regs (fb w)) (g regs (fc ext ip))));
    go p mem regs code ext lits tbl (ip + 1)
  | OvfSub_i32 ->
    s regs (fa w) (bool_i64 (sub_ovf32 (g regs (fb w)) (g regs (fc ext ip))));
    go p mem regs code ext lits tbl (ip + 1)
  | OvfSub_i64 ->
    s regs (fa w) (bool_i64 (sub_ovf64 (g regs (fb w)) (g regs (fc ext ip))));
    go p mem regs code ext lits tbl (ip + 1)
  | OvfMul_i32 ->
    s regs (fa w) (bool_i64 (mul_ovf32 (g regs (fb w)) (g regs (fc ext ip))));
    go p mem regs code ext lits tbl (ip + 1)
  | OvfMul_i64 ->
    s regs (fa w) (bool_i64 (mul_ovf64 (g regs (fb w)) (g regs (fc ext ip))));
    go p mem regs code ext lits tbl (ip + 1)
  | FAdd ->
    sf regs (fa w) (gf regs (fb w) +. gf regs (fc ext ip));
    go p mem regs code ext lits tbl (ip + 1)
  | FSub ->
    sf regs (fa w) (gf regs (fb w) -. gf regs (fc ext ip));
    go p mem regs code ext lits tbl (ip + 1)
  | FMul ->
    sf regs (fa w) (gf regs (fb w) *. gf regs (fc ext ip));
    go p mem regs code ext lits tbl (ip + 1)
  | FDiv ->
    sf regs (fa w) (gf regs (fb w) /. gf regs (fc ext ip));
    go p mem regs code ext lits tbl (ip + 1)
  | CmpEq ->
    s regs (fa w) (bool_i64 (Int64.equal (g regs (fb w)) (g regs (fc ext ip))));
    go p mem regs code ext lits tbl (ip + 1)
  | CmpNe ->
    s regs (fa w) (bool_i64 (not (Int64.equal (g regs (fb w)) (g regs (fc ext ip)))));
    go p mem regs code ext lits tbl (ip + 1)
  | CmpSlt ->
    s regs (fa w) (bool_i64 (Int64.compare (g regs (fb w)) (g regs (fc ext ip)) < 0));
    go p mem regs code ext lits tbl (ip + 1)
  | CmpSle ->
    s regs (fa w) (bool_i64 (Int64.compare (g regs (fb w)) (g regs (fc ext ip)) <= 0));
    go p mem regs code ext lits tbl (ip + 1)
  | CmpSgt ->
    s regs (fa w) (bool_i64 (Int64.compare (g regs (fb w)) (g regs (fc ext ip)) > 0));
    go p mem regs code ext lits tbl (ip + 1)
  | CmpSge ->
    s regs (fa w) (bool_i64 (Int64.compare (g regs (fb w)) (g regs (fc ext ip)) >= 0));
    go p mem regs code ext lits tbl (ip + 1)
  | CmpUlt_i8 ->
    s regs (fa w) (bool_i64 (ukey 56 (g regs (fb w)) < ukey 56 (g regs (fc ext ip))));
    go p mem regs code ext lits tbl (ip + 1)
  | CmpUlt_i16 ->
    s regs (fa w) (bool_i64 (ukey 48 (g regs (fb w)) < ukey 48 (g regs (fc ext ip))));
    go p mem regs code ext lits tbl (ip + 1)
  | CmpUlt_i32 ->
    s regs (fa w) (bool_i64 (ukey 32 (g regs (fb w)) < ukey 32 (g regs (fc ext ip))));
    go p mem regs code ext lits tbl (ip + 1)
  | CmpUlt_i64 ->
    s regs (fa w) (bool_i64 (ukey 0 (g regs (fb w)) < ukey 0 (g regs (fc ext ip))));
    go p mem regs code ext lits tbl (ip + 1)
  | CmpUle_i8 ->
    s regs (fa w) (bool_i64 (ukey 56 (g regs (fb w)) <= ukey 56 (g regs (fc ext ip))));
    go p mem regs code ext lits tbl (ip + 1)
  | CmpUle_i16 ->
    s regs (fa w) (bool_i64 (ukey 48 (g regs (fb w)) <= ukey 48 (g regs (fc ext ip))));
    go p mem regs code ext lits tbl (ip + 1)
  | CmpUle_i32 ->
    s regs (fa w) (bool_i64 (ukey 32 (g regs (fb w)) <= ukey 32 (g regs (fc ext ip))));
    go p mem regs code ext lits tbl (ip + 1)
  | CmpUle_i64 ->
    s regs (fa w) (bool_i64 (ukey 0 (g regs (fb w)) <= ukey 0 (g regs (fc ext ip))));
    go p mem regs code ext lits tbl (ip + 1)
  | CmpUgt_i8 ->
    s regs (fa w) (bool_i64 (ukey 56 (g regs (fb w)) > ukey 56 (g regs (fc ext ip))));
    go p mem regs code ext lits tbl (ip + 1)
  | CmpUgt_i16 ->
    s regs (fa w) (bool_i64 (ukey 48 (g regs (fb w)) > ukey 48 (g regs (fc ext ip))));
    go p mem regs code ext lits tbl (ip + 1)
  | CmpUgt_i32 ->
    s regs (fa w) (bool_i64 (ukey 32 (g regs (fb w)) > ukey 32 (g regs (fc ext ip))));
    go p mem regs code ext lits tbl (ip + 1)
  | CmpUgt_i64 ->
    s regs (fa w) (bool_i64 (ukey 0 (g regs (fb w)) > ukey 0 (g regs (fc ext ip))));
    go p mem regs code ext lits tbl (ip + 1)
  | CmpUge_i8 ->
    s regs (fa w) (bool_i64 (ukey 56 (g regs (fb w)) >= ukey 56 (g regs (fc ext ip))));
    go p mem regs code ext lits tbl (ip + 1)
  | CmpUge_i16 ->
    s regs (fa w) (bool_i64 (ukey 48 (g regs (fb w)) >= ukey 48 (g regs (fc ext ip))));
    go p mem regs code ext lits tbl (ip + 1)
  | CmpUge_i32 ->
    s regs (fa w) (bool_i64 (ukey 32 (g regs (fb w)) >= ukey 32 (g regs (fc ext ip))));
    go p mem regs code ext lits tbl (ip + 1)
  | CmpUge_i64 ->
    s regs (fa w) (bool_i64 (ukey 0 (g regs (fb w)) >= ukey 0 (g regs (fc ext ip))));
    go p mem regs code ext lits tbl (ip + 1)
  | FCmpEq ->
    s regs (fa w) (bool_i64 (gf regs (fb w) = gf regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | FCmpNe ->
    s regs (fa w) (bool_i64 (gf regs (fb w) <> gf regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | FCmpLt ->
    s regs (fa w) (bool_i64 (gf regs (fb w) < gf regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | FCmpLe ->
    s regs (fa w) (bool_i64 (gf regs (fb w) <= gf regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | FCmpGt ->
    s regs (fa w) (bool_i64 (gf regs (fb w) > gf regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | FCmpGe ->
    s regs (fa w) (bool_i64 (gf regs (fb w) >= gf regs (fc ext ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | SelectOp ->
    s regs (fa w)
      (if Int64.equal (g regs (fb w)) 0L then g regs (fd ext ip) else g regs (fc ext ip));
    go p mem regs code ext lits tbl (ip + 1)
  | Zext8 ->
    s regs (fa w) (Int64.logand (g regs (fb w)) 0xFFL);
    go p mem regs code ext lits tbl (ip + 1)
  | Zext16 ->
    s regs (fa w) (Int64.logand (g regs (fb w)) 0xFFFFL);
    go p mem regs code ext lits tbl (ip + 1)
  | Zext32 ->
    s regs (fa w) (Int64.logand (g regs (fb w)) 0xFFFFFFFFL);
    go p mem regs code ext lits tbl (ip + 1)
  | Trunc1 ->
    s regs (fa w) (Int64.logand (g regs (fb w)) 1L);
    go p mem regs code ext lits tbl (ip + 1)
  | Trunc8 ->
    s regs (fa w) (Int64.of_int (sext8 (gp regs (fb w) land 0xff)));
    go p mem regs code ext lits tbl (ip + 1)
  | Trunc16 ->
    s regs (fa w) (Int64.of_int (sext16 (gp regs (fb w) land 0xffff)));
    go p mem regs code ext lits tbl (ip + 1)
  | Trunc32 ->
    s regs (fa w) (Int64.of_int (sext32 (gp regs (fb w) land 0xffff_ffff)));
    go p mem regs code ext lits tbl (ip + 1)
  | SiToFp ->
    sf regs (fa w) (Int64.to_float (g regs (fb w)));
    go p mem regs code ext lits tbl (ip + 1)
  | FpToSi ->
    s regs (fa w) (Int64.of_float (gf regs (fb w)));
    go p mem regs code ext lits tbl (ip + 1)
  | Load8 ->
    s regs (fa w) (Int64.of_int (sext8 (A.get_i8 mem (gp regs (fb w)))));
    go p mem regs code ext lits tbl (ip + 1)
  | Load16 ->
    s regs (fa w) (Int64.of_int (sext16 (A.get_i16 mem (gp regs (fb w)))));
    go p mem regs code ext lits tbl (ip + 1)
  | Load32 ->
    s regs (fa w) (Int64.of_int (A.get_i32 mem (gp regs (fb w))));
    go p mem regs code ext lits tbl (ip + 1)
  | Load64 ->
    A.get_i64_to mem (gp regs (fb w)) regs (fa w);
    go p mem regs code ext lits tbl (ip + 1)
  | Store8 ->
    A.set_i8 mem (gp regs (fb w)) (Int64.to_int (g regs (fa w)) land 0xff);
    go p mem regs code ext lits tbl (ip + 1)
  | Store16 ->
    A.set_i16 mem (gp regs (fb w)) (Int64.to_int (g regs (fa w)) land 0xffff);
    go p mem regs code ext lits tbl (ip + 1)
  | Store32 ->
    A.set_i32_from mem (gp regs (fb w)) regs (fa w);
    go p mem regs code ext lits tbl (ip + 1)
  | Store64 ->
    A.set_i64_from mem (gp regs (fb w)) regs (fa w);
    go p mem regs code ext lits tbl (ip + 1)
  | Gep ->
    let lit = Array.unsafe_get lits ip in
    s regs (fa w)
      (Int64.add (g regs (fb w))
         (Int64.of_int ((gp regs (fc ext ip) * scale lit) + offset lit)));
    go p mem regs code ext lits tbl (ip + 1)
  | GepConst ->
    s regs (fa w) (Int64.add (g regs (fb w)) (Int64.of_int (Array.unsafe_get lits ip)));
    go p mem regs code ext lits tbl (ip + 1)
  | LoadIdx8 ->
    let lit = Array.unsafe_get lits ip in
    let addr = gp regs (fb w) + (gp regs (fc ext ip) * scale lit) + offset lit in
    s regs (fa w) (Int64.of_int (sext8 (A.get_i8 mem addr)));
    go p mem regs code ext lits tbl (ip + 1)
  | LoadIdx16 ->
    let lit = Array.unsafe_get lits ip in
    let addr = gp regs (fb w) + (gp regs (fc ext ip) * scale lit) + offset lit in
    s regs (fa w) (Int64.of_int (sext16 (A.get_i16 mem addr)));
    go p mem regs code ext lits tbl (ip + 1)
  | LoadIdx32 ->
    let lit = Array.unsafe_get lits ip in
    let addr = gp regs (fb w) + (gp regs (fc ext ip) * scale lit) + offset lit in
    s regs (fa w) (Int64.of_int (A.get_i32 mem addr));
    go p mem regs code ext lits tbl (ip + 1)
  | LoadIdx64 ->
    let lit = Array.unsafe_get lits ip in
    let addr = gp regs (fb w) + (gp regs (fc ext ip) * scale lit) + offset lit in
    A.get_i64_to mem addr regs (fa w);
    go p mem regs code ext lits tbl (ip + 1)
  | StoreIdx8 ->
    let lit = Array.unsafe_get lits ip in
    let addr = gp regs (fb w) + (gp regs (fc ext ip) * scale lit) + offset lit in
    A.set_i8 mem addr (Int64.to_int (g regs (fa w)) land 0xff);
    go p mem regs code ext lits tbl (ip + 1)
  | StoreIdx16 ->
    let lit = Array.unsafe_get lits ip in
    let addr = gp regs (fb w) + (gp regs (fc ext ip) * scale lit) + offset lit in
    A.set_i16 mem addr (Int64.to_int (g regs (fa w)) land 0xffff);
    go p mem regs code ext lits tbl (ip + 1)
  | StoreIdx32 ->
    let lit = Array.unsafe_get lits ip in
    let addr = gp regs (fb w) + (gp regs (fc ext ip) * scale lit) + offset lit in
    A.set_i32_from mem addr regs (fa w);
    go p mem regs code ext lits tbl (ip + 1)
  | StoreIdx64 ->
    let lit = Array.unsafe_get lits ip in
    let addr = gp regs (fb w) + (gp regs (fc ext ip) * scale lit) + offset lit in
    A.set_i64_from mem addr regs (fa w);
    go p mem regs code ext lits tbl (ip + 1)
  | Jmp -> go p mem regs code ext lits tbl (fa w)
  | CondJmp -> if Int64.equal (g regs (fa w)) 0L then go p mem regs code ext lits tbl (fc ext ip) else go p mem regs code ext lits tbl (fb w)
  | JmpEq ->
    if Int64.equal (g regs (fa w)) (g regs (fb w)) then go p mem regs code ext lits tbl (fc ext ip) else go p mem regs code ext lits tbl (fd ext ip)
  | JmpNe ->
    if Int64.equal (g regs (fa w)) (g regs (fb w)) then go p mem regs code ext lits tbl (fd ext ip) else go p mem regs code ext lits tbl (fc ext ip)
  | JmpSlt ->
    if Int64.compare (g regs (fa w)) (g regs (fb w)) < 0 then go p mem regs code ext lits tbl (fc ext ip) else go p mem regs code ext lits tbl (fd ext ip)
  | JmpSle ->
    if Int64.compare (g regs (fa w)) (g regs (fb w)) <= 0 then go p mem regs code ext lits tbl (fc ext ip) else go p mem regs code ext lits tbl (fd ext ip)
  | JmpSgt ->
    if Int64.compare (g regs (fa w)) (g regs (fb w)) > 0 then go p mem regs code ext lits tbl (fc ext ip) else go p mem regs code ext lits tbl (fd ext ip)
  | JmpSge ->
    if Int64.compare (g regs (fa w)) (g regs (fb w)) >= 0 then go p mem regs code ext lits tbl (fc ext ip) else go p mem regs code ext lits tbl (fd ext ip)
  | RetVal -> fa w
  | RetVoid -> -1
  | AbortOp -> raise (Trap.Error p.Bytecode.messages.((fa w)))
  | CallV0 ->
    (match Array.unsafe_get tbl (Array.unsafe_get lits ip) with
    | Rt_fn.F0 f -> ignore (f regs)
    | _ -> assert false);
    go p mem regs code ext lits tbl (ip + 1)
  | CallV1 ->
    (match Array.unsafe_get tbl (Array.unsafe_get lits ip) with
    | Rt_fn.F1 f -> ignore (f regs (fa w))
    | _ -> assert false);
    go p mem regs code ext lits tbl (ip + 1)
  | CallV2 ->
    (match Array.unsafe_get tbl (Array.unsafe_get lits ip) with
    | Rt_fn.F2 f -> ignore (f regs (fa w) (fb w))
    | _ -> assert false);
    go p mem regs code ext lits tbl (ip + 1)
  | CallV3 ->
    (match Array.unsafe_get tbl (Array.unsafe_get lits ip) with
    | Rt_fn.F3 f -> ignore (f regs (fa w) (fb w) (fc ext ip))
    | _ -> assert false);
    go p mem regs code ext lits tbl (ip + 1)
  | CallV4 ->
    (match Array.unsafe_get tbl (Array.unsafe_get lits ip) with
    | Rt_fn.F4 f -> ignore (f regs (fa w) (fb w) (fc ext ip) (fd ext ip))
    | _ -> assert false);
    go p mem regs code ext lits tbl (ip + 1)
  | CallV5 ->
    (match Array.unsafe_get tbl (Array.unsafe_get lits ip) with
    | Rt_fn.F5 f -> ignore (f regs (fa w) (fb w) (fc ext ip) (fd ext ip) (fe ext ip))
    | _ -> assert false);
    go p mem regs code ext lits tbl (ip + 1)
  | CallR0 ->
    (match Array.unsafe_get tbl (Array.unsafe_get lits ip) with
    | Rt_fn.F0 f -> s regs (fa w) (Int64.of_int (f regs))
    | _ -> assert false);
    go p mem regs code ext lits tbl (ip + 1)
  | CallR1 ->
    (match Array.unsafe_get tbl (Array.unsafe_get lits ip) with
    | Rt_fn.F1 f -> s regs (fa w) (Int64.of_int (f regs (fb w)))
    | _ -> assert false);
    go p mem regs code ext lits tbl (ip + 1)
  | CallR2 ->
    (match Array.unsafe_get tbl (Array.unsafe_get lits ip) with
    | Rt_fn.F2 f -> s regs (fa w) (Int64.of_int (f regs (fb w) (fc ext ip)))
    | _ -> assert false);
    go p mem regs code ext lits tbl (ip + 1)
  | CallR3 ->
    (match Array.unsafe_get tbl (Array.unsafe_get lits ip) with
    | Rt_fn.F3 f -> s regs (fa w) (Int64.of_int (f regs (fb w) (fc ext ip) (fd ext ip)))
    | _ -> assert false);
    go p mem regs code ext lits tbl (ip + 1)
  | CallR4 ->
    (match Array.unsafe_get tbl (Array.unsafe_get lits ip) with
    | Rt_fn.F4 f ->
      s regs (fa w) (Int64.of_int (f regs (fb w) (fc ext ip) (fd ext ip) (fe ext ip)))
    | _ -> assert false);
    go p mem regs code ext lits tbl (ip + 1)

let check_size (p : Bytecode.t) regs =
  if Bytes.length regs < p.Bytecode.n_reg_bytes then
    invalid_arg
      (Printf.sprintf "Interp.run: a %d-byte register file for %s, which needs %d"
         (Bytes.length regs) p.Bytecode.name p.Bytecode.n_reg_bytes)

(* Copy the constant pool in and run from the first instruction: the
   parameter slots hold what the caller put there. *)
let enter (p : Bytecode.t) mem regs =
  let pool = p.Bytecode.const_pool in
  for i = 0 to Array.length pool - 1 do
    s regs (8 * i) (Array.unsafe_get pool i)
  done;
  let code = p.Bytecode.code and ext = p.Bytecode.ext and lits = p.Bytecode.lits in
  if Array.length ext <> Array.length code || Array.length lits <> Array.length code then
    invalid_arg "Interp.run: instruction arrays of different lengths";
  go p mem regs code ext lits p.Bytecode.rt_table 0

let exec p mem regs =
  check_size p regs;
  ignore (enter p mem regs)

let run (p : Bytecode.t) mem ?regs ~args () =
  let regs = match regs with Some r -> r | None -> scratch p in
  check_size p regs;
  let params = p.Bytecode.param_offsets in
  for i = 0 to Array.length params - 1 do
    Bytes.set_int64_ne regs params.(i) (if i < Array.length args then args.(i) else 0L)
  done;
  let r = enter p mem regs in
  if r < 0 then 0L else g regs r
