module A = Aeq_mem.Arena
module S = Semantics

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

let run (p : Bytecode.t) mem ?regs ~args () =
  let regs = match regs with Some r -> r | None -> scratch p in
  if Bytes.length regs < p.Bytecode.n_reg_bytes then
    invalid_arg
      (Printf.sprintf "Interp.run: a %d-byte register file for %s, which needs %d"
         (Bytes.length regs) p.Bytecode.name p.Bytecode.n_reg_bytes);
  Array.iteri (fun i c -> Bytes.set_int64_ne regs (8 * i) c) p.Bytecode.const_pool;
  Array.iteri
    (fun i off -> Bytes.set_int64_ne regs off (if i < Array.length args then args.(i) else 0L))
    p.Bytecode.param_offsets;
  let code = p.Bytecode.code and ext = p.Bytecode.ext and lits = p.Bytecode.lits in
  if Array.length ext <> Array.length code || Array.length lits <> Array.length code then
    invalid_arg "Interp.run: instruction arrays of different lengths";
  let tbl = p.Bytecode.rt_table in
  let rec go ip =
    let w = Array.unsafe_get code ip in
    match op_of w with
    | Opcode.Mov ->
      s regs (fa w) (g regs (fb w));
      go (ip + 1)
    | Add_i8 ->
      s regs (fa w) (S.add ~width:8 (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | Add_i16 ->
      s regs (fa w) (S.add ~width:16 (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | Add_i32 ->
      s regs (fa w) (S.add ~width:32 (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | Add_i64 ->
      s regs (fa w) (Int64.add (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | Sub_i8 ->
      s regs (fa w) (S.sub ~width:8 (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | Sub_i16 ->
      s regs (fa w) (S.sub ~width:16 (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | Sub_i32 ->
      s regs (fa w) (S.sub ~width:32 (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | Sub_i64 ->
      s regs (fa w) (Int64.sub (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | Mul_i8 ->
      s regs (fa w) (S.mul ~width:8 (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | Mul_i16 ->
      s regs (fa w) (S.mul ~width:16 (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | Mul_i32 ->
      s regs (fa w) (S.mul ~width:32 (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | Mul_i64 ->
      s regs (fa w) (Int64.mul (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | Div_i8 ->
      s regs (fa w) (S.div ~width:8 (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | Div_i16 ->
      s regs (fa w) (S.div ~width:16 (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | Div_i32 ->
      s regs (fa w) (S.div ~width:32 (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | Div_i64 ->
      s regs (fa w) (S.div ~width:64 (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | Rem_i8 ->
      s regs (fa w) (S.rem ~width:8 (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | Rem_i16 ->
      s regs (fa w) (S.rem ~width:16 (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | Rem_i32 ->
      s regs (fa w) (S.rem ~width:32 (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | Rem_i64 ->
      s regs (fa w) (S.rem ~width:64 (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | And64 ->
      s regs (fa w) (Int64.logand (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | Or64 ->
      s regs (fa w) (Int64.logor (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | Xor64 ->
      s regs (fa w) (Int64.logxor (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | Shl_i8 ->
      s regs (fa w) (S.shl ~width:8 (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | Shl_i16 ->
      s regs (fa w) (S.shl ~width:16 (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | Shl_i32 ->
      s regs (fa w) (S.shl ~width:32 (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | Shl_i64 ->
      s regs (fa w) (S.shl ~width:64 (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | LShr_i8 ->
      s regs (fa w) (S.lshr ~width:8 (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | LShr_i16 ->
      s regs (fa w) (S.lshr ~width:16 (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | LShr_i32 ->
      s regs (fa w) (S.lshr ~width:32 (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | LShr_i64 ->
      s regs (fa w) (S.lshr ~width:64 (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | AShr64 ->
      s regs (fa w) (Int64.shift_right (g regs (fb w)) (Int64.to_int (g regs (fc ext ip)) land 63));
      go (ip + 1)
    | AddChk_i32 ->
      s regs (fa w) (S.add_chk ~width:32 (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | AddChk_i64 ->
      s regs (fa w) (S.add_chk ~width:64 (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | SubChk_i32 ->
      s regs (fa w) (S.sub_chk ~width:32 (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | SubChk_i64 ->
      s regs (fa w) (S.sub_chk ~width:64 (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | MulChk_i32 ->
      s regs (fa w) (S.mul_chk ~width:32 (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | MulChk_i64 ->
      s regs (fa w) (S.mul_chk ~width:64 (g regs (fb w)) (g regs (fc ext ip)));
      go (ip + 1)
    | OvfAdd_i32 ->
      s regs (fa w) (S.bool_i64 (S.add_ovf ~width:32 (g regs (fb w)) (g regs (fc ext ip))));
      go (ip + 1)
    | OvfAdd_i64 ->
      s regs (fa w) (S.bool_i64 (S.add_ovf ~width:64 (g regs (fb w)) (g regs (fc ext ip))));
      go (ip + 1)
    | OvfSub_i32 ->
      s regs (fa w) (S.bool_i64 (S.sub_ovf ~width:32 (g regs (fb w)) (g regs (fc ext ip))));
      go (ip + 1)
    | OvfSub_i64 ->
      s regs (fa w) (S.bool_i64 (S.sub_ovf ~width:64 (g regs (fb w)) (g regs (fc ext ip))));
      go (ip + 1)
    | OvfMul_i32 ->
      s regs (fa w) (S.bool_i64 (S.mul_ovf ~width:32 (g regs (fb w)) (g regs (fc ext ip))));
      go (ip + 1)
    | OvfMul_i64 ->
      s regs (fa w) (S.bool_i64 (S.mul_ovf ~width:64 (g regs (fb w)) (g regs (fc ext ip))));
      go (ip + 1)
    | FAdd ->
      sf regs (fa w) (gf regs (fb w) +. gf regs (fc ext ip));
      go (ip + 1)
    | FSub ->
      sf regs (fa w) (gf regs (fb w) -. gf regs (fc ext ip));
      go (ip + 1)
    | FMul ->
      sf regs (fa w) (gf regs (fb w) *. gf regs (fc ext ip));
      go (ip + 1)
    | FDiv ->
      sf regs (fa w) (gf regs (fb w) /. gf regs (fc ext ip));
      go (ip + 1)
    | CmpEq ->
      s regs (fa w) (S.bool_i64 (Int64.equal (g regs (fb w)) (g regs (fc ext ip))));
      go (ip + 1)
    | CmpNe ->
      s regs (fa w) (S.bool_i64 (not (Int64.equal (g regs (fb w)) (g regs (fc ext ip)))));
      go (ip + 1)
    | CmpSlt ->
      s regs (fa w) (S.bool_i64 (Int64.compare (g regs (fb w)) (g regs (fc ext ip)) < 0));
      go (ip + 1)
    | CmpSle ->
      s regs (fa w) (S.bool_i64 (Int64.compare (g regs (fb w)) (g regs (fc ext ip)) <= 0));
      go (ip + 1)
    | CmpSgt ->
      s regs (fa w) (S.bool_i64 (Int64.compare (g regs (fb w)) (g regs (fc ext ip)) > 0));
      go (ip + 1)
    | CmpSge ->
      s regs (fa w) (S.bool_i64 (Int64.compare (g regs (fb w)) (g regs (fc ext ip)) >= 0));
      go (ip + 1)
    | CmpUlt_i8 ->
      s regs (fa w) (S.bool_i64 (S.ucmp ~width:8 (g regs (fb w)) (g regs (fc ext ip)) < 0));
      go (ip + 1)
    | CmpUlt_i16 ->
      s regs (fa w) (S.bool_i64 (S.ucmp ~width:16 (g regs (fb w)) (g regs (fc ext ip)) < 0));
      go (ip + 1)
    | CmpUlt_i32 ->
      s regs (fa w) (S.bool_i64 (S.ucmp ~width:32 (g regs (fb w)) (g regs (fc ext ip)) < 0));
      go (ip + 1)
    | CmpUlt_i64 ->
      s regs (fa w) (S.bool_i64 (S.ucmp ~width:64 (g regs (fb w)) (g regs (fc ext ip)) < 0));
      go (ip + 1)
    | CmpUle_i8 ->
      s regs (fa w) (S.bool_i64 (S.ucmp ~width:8 (g regs (fb w)) (g regs (fc ext ip)) <= 0));
      go (ip + 1)
    | CmpUle_i16 ->
      s regs (fa w) (S.bool_i64 (S.ucmp ~width:16 (g regs (fb w)) (g regs (fc ext ip)) <= 0));
      go (ip + 1)
    | CmpUle_i32 ->
      s regs (fa w) (S.bool_i64 (S.ucmp ~width:32 (g regs (fb w)) (g regs (fc ext ip)) <= 0));
      go (ip + 1)
    | CmpUle_i64 ->
      s regs (fa w) (S.bool_i64 (S.ucmp ~width:64 (g regs (fb w)) (g regs (fc ext ip)) <= 0));
      go (ip + 1)
    | CmpUgt_i8 ->
      s regs (fa w) (S.bool_i64 (S.ucmp ~width:8 (g regs (fb w)) (g regs (fc ext ip)) > 0));
      go (ip + 1)
    | CmpUgt_i16 ->
      s regs (fa w) (S.bool_i64 (S.ucmp ~width:16 (g regs (fb w)) (g regs (fc ext ip)) > 0));
      go (ip + 1)
    | CmpUgt_i32 ->
      s regs (fa w) (S.bool_i64 (S.ucmp ~width:32 (g regs (fb w)) (g regs (fc ext ip)) > 0));
      go (ip + 1)
    | CmpUgt_i64 ->
      s regs (fa w) (S.bool_i64 (S.ucmp ~width:64 (g regs (fb w)) (g regs (fc ext ip)) > 0));
      go (ip + 1)
    | CmpUge_i8 ->
      s regs (fa w) (S.bool_i64 (S.ucmp ~width:8 (g regs (fb w)) (g regs (fc ext ip)) >= 0));
      go (ip + 1)
    | CmpUge_i16 ->
      s regs (fa w) (S.bool_i64 (S.ucmp ~width:16 (g regs (fb w)) (g regs (fc ext ip)) >= 0));
      go (ip + 1)
    | CmpUge_i32 ->
      s regs (fa w) (S.bool_i64 (S.ucmp ~width:32 (g regs (fb w)) (g regs (fc ext ip)) >= 0));
      go (ip + 1)
    | CmpUge_i64 ->
      s regs (fa w) (S.bool_i64 (S.ucmp ~width:64 (g regs (fb w)) (g regs (fc ext ip)) >= 0));
      go (ip + 1)
    | FCmpEq ->
      s regs (fa w) (S.bool_i64 (gf regs (fb w) = gf regs (fc ext ip)));
      go (ip + 1)
    | FCmpNe ->
      s regs (fa w) (S.bool_i64 (gf regs (fb w) <> gf regs (fc ext ip)));
      go (ip + 1)
    | FCmpLt ->
      s regs (fa w) (S.bool_i64 (gf regs (fb w) < gf regs (fc ext ip)));
      go (ip + 1)
    | FCmpLe ->
      s regs (fa w) (S.bool_i64 (gf regs (fb w) <= gf regs (fc ext ip)));
      go (ip + 1)
    | FCmpGt ->
      s regs (fa w) (S.bool_i64 (gf regs (fb w) > gf regs (fc ext ip)));
      go (ip + 1)
    | FCmpGe ->
      s regs (fa w) (S.bool_i64 (gf regs (fb w) >= gf regs (fc ext ip)));
      go (ip + 1)
    | SelectOp ->
      s regs (fa w)
        (if Int64.equal (g regs (fb w)) 0L then g regs (fd ext ip) else g regs (fc ext ip));
      go (ip + 1)
    | Zext8 ->
      s regs (fa w) (Int64.logand (g regs (fb w)) 0xFFL);
      go (ip + 1)
    | Zext16 ->
      s regs (fa w) (Int64.logand (g regs (fb w)) 0xFFFFL);
      go (ip + 1)
    | Zext32 ->
      s regs (fa w) (Int64.logand (g regs (fb w)) 0xFFFFFFFFL);
      go (ip + 1)
    | Trunc1 ->
      s regs (fa w) (Int64.logand (g regs (fb w)) 1L);
      go (ip + 1)
    | Trunc8 ->
      s regs (fa w) (Int64.of_int (sext8 (gp regs (fb w) land 0xff)));
      go (ip + 1)
    | Trunc16 ->
      s regs (fa w) (Int64.of_int (sext16 (gp regs (fb w) land 0xffff)));
      go (ip + 1)
    | Trunc32 ->
      s regs (fa w) (Int64.of_int (sext32 (gp regs (fb w) land 0xffff_ffff)));
      go (ip + 1)
    | SiToFp ->
      sf regs (fa w) (Int64.to_float (g regs (fb w)));
      go (ip + 1)
    | FpToSi ->
      s regs (fa w) (Int64.of_float (gf regs (fb w)));
      go (ip + 1)
    | Load8 ->
      s regs (fa w) (Int64.of_int (sext8 (A.get_i8 mem (gp regs (fb w)))));
      go (ip + 1)
    | Load16 ->
      s regs (fa w) (Int64.of_int (sext16 (A.get_i16 mem (gp regs (fb w)))));
      go (ip + 1)
    | Load32 ->
      s regs (fa w) (Int64.of_int (A.get_i32 mem (gp regs (fb w))));
      go (ip + 1)
    | Load64 ->
      A.get_i64_to mem (gp regs (fb w)) regs (fa w);
      go (ip + 1)
    | Store8 ->
      A.set_i8 mem (gp regs (fb w)) (Int64.to_int (g regs (fa w)) land 0xff);
      go (ip + 1)
    | Store16 ->
      A.set_i16 mem (gp regs (fb w)) (Int64.to_int (g regs (fa w)) land 0xffff);
      go (ip + 1)
    | Store32 ->
      A.set_i32_from mem (gp regs (fb w)) regs (fa w);
      go (ip + 1)
    | Store64 ->
      A.set_i64_from mem (gp regs (fb w)) regs (fa w);
      go (ip + 1)
    | Gep ->
      let lit = Array.unsafe_get lits ip in
      s regs (fa w)
        (Int64.add (g regs (fb w))
           (Int64.of_int ((gp regs (fc ext ip) * scale lit) + offset lit)));
      go (ip + 1)
    | GepConst ->
      s regs (fa w) (Int64.add (g regs (fb w)) (Int64.of_int (Array.unsafe_get lits ip)));
      go (ip + 1)
    | LoadIdx8 ->
      let lit = Array.unsafe_get lits ip in
      let addr = gp regs (fb w) + (gp regs (fc ext ip) * scale lit) + offset lit in
      s regs (fa w) (Int64.of_int (sext8 (A.get_i8 mem addr)));
      go (ip + 1)
    | LoadIdx16 ->
      let lit = Array.unsafe_get lits ip in
      let addr = gp regs (fb w) + (gp regs (fc ext ip) * scale lit) + offset lit in
      s regs (fa w) (Int64.of_int (sext16 (A.get_i16 mem addr)));
      go (ip + 1)
    | LoadIdx32 ->
      let lit = Array.unsafe_get lits ip in
      let addr = gp regs (fb w) + (gp regs (fc ext ip) * scale lit) + offset lit in
      s regs (fa w) (Int64.of_int (A.get_i32 mem addr));
      go (ip + 1)
    | LoadIdx64 ->
      let lit = Array.unsafe_get lits ip in
      let addr = gp regs (fb w) + (gp regs (fc ext ip) * scale lit) + offset lit in
      A.get_i64_to mem addr regs (fa w);
      go (ip + 1)
    | StoreIdx8 ->
      let lit = Array.unsafe_get lits ip in
      let addr = gp regs (fb w) + (gp regs (fc ext ip) * scale lit) + offset lit in
      A.set_i8 mem addr (Int64.to_int (g regs (fa w)) land 0xff);
      go (ip + 1)
    | StoreIdx16 ->
      let lit = Array.unsafe_get lits ip in
      let addr = gp regs (fb w) + (gp regs (fc ext ip) * scale lit) + offset lit in
      A.set_i16 mem addr (Int64.to_int (g regs (fa w)) land 0xffff);
      go (ip + 1)
    | StoreIdx32 ->
      let lit = Array.unsafe_get lits ip in
      let addr = gp regs (fb w) + (gp regs (fc ext ip) * scale lit) + offset lit in
      A.set_i32_from mem addr regs (fa w);
      go (ip + 1)
    | StoreIdx64 ->
      let lit = Array.unsafe_get lits ip in
      let addr = gp regs (fb w) + (gp regs (fc ext ip) * scale lit) + offset lit in
      A.set_i64_from mem addr regs (fa w);
      go (ip + 1)
    | Jmp -> go (fa w)
    | CondJmp -> if Int64.equal (g regs (fa w)) 0L then go (fc ext ip) else go (fb w)
    | JmpEq ->
      if Int64.equal (g regs (fa w)) (g regs (fb w)) then go (fc ext ip) else go (fd ext ip)
    | JmpNe ->
      if Int64.equal (g regs (fa w)) (g regs (fb w)) then go (fd ext ip) else go (fc ext ip)
    | JmpSlt ->
      if Int64.compare (g regs (fa w)) (g regs (fb w)) < 0 then go (fc ext ip) else go (fd ext ip)
    | JmpSle ->
      if Int64.compare (g regs (fa w)) (g regs (fb w)) <= 0 then go (fc ext ip) else go (fd ext ip)
    | JmpSgt ->
      if Int64.compare (g regs (fa w)) (g regs (fb w)) > 0 then go (fc ext ip) else go (fd ext ip)
    | JmpSge ->
      if Int64.compare (g regs (fa w)) (g regs (fb w)) >= 0 then go (fc ext ip) else go (fd ext ip)
    | RetVal -> g regs (fa w)
    | RetVoid -> 0L
    | AbortOp -> raise (Trap.Error p.Bytecode.messages.((fa w)))
    | CallV0 ->
      (match Array.unsafe_get tbl (Array.unsafe_get lits ip) with
      | Rt_fn.F0 f -> ignore (f ())
      | _ -> assert false);
      go (ip + 1)
    | CallV1 ->
      (match Array.unsafe_get tbl (Array.unsafe_get lits ip) with
      | Rt_fn.F1 f -> ignore (f (g regs (fa w)))
      | _ -> assert false);
      go (ip + 1)
    | CallV2 ->
      (match Array.unsafe_get tbl (Array.unsafe_get lits ip) with
      | Rt_fn.F2 f -> ignore (f (g regs (fa w)) (g regs (fb w)))
      | _ -> assert false);
      go (ip + 1)
    | CallV3 ->
      (match Array.unsafe_get tbl (Array.unsafe_get lits ip) with
      | Rt_fn.F3 f -> ignore (f (g regs (fa w)) (g regs (fb w)) (g regs (fc ext ip)))
      | _ -> assert false);
      go (ip + 1)
    | CallV4 ->
      (match Array.unsafe_get tbl (Array.unsafe_get lits ip) with
      | Rt_fn.F4 f ->
        ignore (f (g regs (fa w)) (g regs (fb w)) (g regs (fc ext ip)) (g regs (fd ext ip)))
      | _ -> assert false);
      go (ip + 1)
    | CallV5 ->
      (match Array.unsafe_get tbl (Array.unsafe_get lits ip) with
      | Rt_fn.F5 f ->
        ignore
          (f (g regs (fa w)) (g regs (fb w)) (g regs (fc ext ip)) (g regs (fd ext ip))
             (g regs (fe ext ip)))
      | _ -> assert false);
      go (ip + 1)
    | CallR0 ->
      (match Array.unsafe_get tbl (Array.unsafe_get lits ip) with
      | Rt_fn.F0 f -> s regs (fa w) (f ())
      | _ -> assert false);
      go (ip + 1)
    | CallR1 ->
      (match Array.unsafe_get tbl (Array.unsafe_get lits ip) with
      | Rt_fn.F1 f -> s regs (fa w) (f (g regs (fb w)))
      | _ -> assert false);
      go (ip + 1)
    | CallR2 ->
      (match Array.unsafe_get tbl (Array.unsafe_get lits ip) with
      | Rt_fn.F2 f -> s regs (fa w) (f (g regs (fb w)) (g regs (fc ext ip)))
      | _ -> assert false);
      go (ip + 1)
    | CallR3 ->
      (match Array.unsafe_get tbl (Array.unsafe_get lits ip) with
      | Rt_fn.F3 f -> s regs (fa w) (f (g regs (fb w)) (g regs (fc ext ip)) (g regs (fd ext ip)))
      | _ -> assert false);
      go (ip + 1)
    | CallR4 ->
      (match Array.unsafe_get tbl (Array.unsafe_get lits ip) with
      | Rt_fn.F4 f ->
        s regs (fa w)
          (f (g regs (fb w)) (g regs (fc ext ip)) (g regs (fd ext ip)) (g regs (fe ext ip)))
      | _ -> assert false);
      go (ip + 1)
  in
  go 0
