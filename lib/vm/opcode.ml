(* The VM instruction set: fixed-length, statically typed, mostly
   mirroring the IR instruction set with the type baked into the opcode
   (paper Section IV-A), plus macro-ops for the fused sequences of
   Section IV-F (checked arithmetic, GEP+load/store, compare+branch).

   Register values are stored in canonical form: every integer value
   occupies a full 8-byte slot, sign-extended from its declared width;
   booleans are 0/1; floats are IEEE-754 bits. Canonicalisation makes
   signed comparisons, bitwise ops and sign extensions width-
   independent, which keeps the opcode count near the paper's ~500
   rather than a full cross product. *)

type t =
  (* moves *)
  | Mov
  (* integer arithmetic, canonical sign-extended results *)
  | Add_i8
  | Add_i16
  | Add_i32
  | Add_i64
  | Sub_i8
  | Sub_i16
  | Sub_i32
  | Sub_i64
  | Mul_i8
  | Mul_i16
  | Mul_i32
  | Mul_i64
  | Div_i8
  | Div_i16
  | Div_i32
  | Div_i64
  | Rem_i8
  | Rem_i16
  | Rem_i32
  | Rem_i64
  | And64
  | Or64
  | Xor64
  | Shl_i8
  | Shl_i16
  | Shl_i32
  | Shl_i64
  | LShr_i8
  | LShr_i16
  | LShr_i32
  | LShr_i64
  | AShr64
  (* fused overflow-checked arithmetic (macro-ops; trap on overflow) *)
  | AddChk_i32
  | AddChk_i64
  | SubChk_i32
  | SubChk_i64
  | MulChk_i32
  | MulChk_i64
  (* overflow-flag computation (unfused fallback) *)
  | OvfAdd_i32
  | OvfAdd_i64
  | OvfSub_i32
  | OvfSub_i64
  | OvfMul_i32
  | OvfMul_i64
  (* float arithmetic *)
  | FAdd
  | FSub
  | FMul
  | FDiv
  (* integer comparisons; signed/eq are width-independent on canonical values *)
  | CmpEq
  | CmpNe
  | CmpSlt
  | CmpSle
  | CmpSgt
  | CmpSge
  | CmpUlt_i8
  | CmpUlt_i16
  | CmpUlt_i32
  | CmpUlt_i64
  | CmpUle_i8
  | CmpUle_i16
  | CmpUle_i32
  | CmpUle_i64
  | CmpUgt_i8
  | CmpUgt_i16
  | CmpUgt_i32
  | CmpUgt_i64
  | CmpUge_i8
  | CmpUge_i16
  | CmpUge_i32
  | CmpUge_i64
  (* float comparisons *)
  | FCmpEq
  | FCmpNe
  | FCmpLt
  | FCmpLe
  | FCmpGt
  | FCmpGe
  | SelectOp
  (* casts *)
  | Zext8
  | Zext16
  | Zext32
  | Trunc1
  | Trunc8
  | Trunc16
  | Trunc32
  | SiToFp
  | FpToSi
  (* memory *)
  | Load8
  | Load16
  | Load32
  | Load64
  | Store8
  | Store16
  | Store32
  | Store64
  | Gep
  | GepConst
  (* fused GEP + memory (macro-ops) *)
  | LoadIdx8
  | LoadIdx16
  | LoadIdx32
  | LoadIdx64
  | StoreIdx8
  | StoreIdx16
  | StoreIdx32
  | StoreIdx64
  (* control flow *)
  | Jmp
  | CondJmp
  (* fused compare + branch (macro-ops; a,b compared; c/d targets) *)
  | JmpEq
  | JmpNe
  | JmpSlt
  | JmpSle
  | JmpSgt
  | JmpSge
  | RetVal
  | RetVoid
  | AbortOp
  (* runtime calls; lit = function-table index *)
  | CallV0
  | CallV1
  | CallV2
  | CallV3
  | CallV4
  | CallV5
  | CallR0
  | CallR1
  | CallR2
  | CallR3
  | CallR4

let to_string = function
  | Mov -> "mov"
  | Add_i8 -> "add_i8"
  | Add_i16 -> "add_i16"
  | Add_i32 -> "add_i32"
  | Add_i64 -> "add_i64"
  | Sub_i8 -> "sub_i8"
  | Sub_i16 -> "sub_i16"
  | Sub_i32 -> "sub_i32"
  | Sub_i64 -> "sub_i64"
  | Mul_i8 -> "mul_i8"
  | Mul_i16 -> "mul_i16"
  | Mul_i32 -> "mul_i32"
  | Mul_i64 -> "mul_i64"
  | Div_i8 -> "div_i8"
  | Div_i16 -> "div_i16"
  | Div_i32 -> "div_i32"
  | Div_i64 -> "div_i64"
  | Rem_i8 -> "rem_i8"
  | Rem_i16 -> "rem_i16"
  | Rem_i32 -> "rem_i32"
  | Rem_i64 -> "rem_i64"
  | And64 -> "and"
  | Or64 -> "or"
  | Xor64 -> "xor"
  | Shl_i8 -> "shl_i8"
  | Shl_i16 -> "shl_i16"
  | Shl_i32 -> "shl_i32"
  | Shl_i64 -> "shl_i64"
  | LShr_i8 -> "lshr_i8"
  | LShr_i16 -> "lshr_i16"
  | LShr_i32 -> "lshr_i32"
  | LShr_i64 -> "lshr_i64"
  | AShr64 -> "ashr"
  | AddChk_i32 -> "add_chk_i32"
  | AddChk_i64 -> "add_chk_i64"
  | SubChk_i32 -> "sub_chk_i32"
  | SubChk_i64 -> "sub_chk_i64"
  | MulChk_i32 -> "mul_chk_i32"
  | MulChk_i64 -> "mul_chk_i64"
  | OvfAdd_i32 -> "ovf_add_i32"
  | OvfAdd_i64 -> "ovf_add_i64"
  | OvfSub_i32 -> "ovf_sub_i32"
  | OvfSub_i64 -> "ovf_sub_i64"
  | OvfMul_i32 -> "ovf_mul_i32"
  | OvfMul_i64 -> "ovf_mul_i64"
  | FAdd -> "fadd"
  | FSub -> "fsub"
  | FMul -> "fmul"
  | FDiv -> "fdiv"
  | CmpEq -> "cmp_eq"
  | CmpNe -> "cmp_ne"
  | CmpSlt -> "cmp_slt"
  | CmpSle -> "cmp_sle"
  | CmpSgt -> "cmp_sgt"
  | CmpSge -> "cmp_sge"
  | CmpUlt_i8 -> "cmp_ult_i8"
  | CmpUlt_i16 -> "cmp_ult_i16"
  | CmpUlt_i32 -> "cmp_ult_i32"
  | CmpUlt_i64 -> "cmp_ult_i64"
  | CmpUle_i8 -> "cmp_ule_i8"
  | CmpUle_i16 -> "cmp_ule_i16"
  | CmpUle_i32 -> "cmp_ule_i32"
  | CmpUle_i64 -> "cmp_ule_i64"
  | CmpUgt_i8 -> "cmp_ugt_i8"
  | CmpUgt_i16 -> "cmp_ugt_i16"
  | CmpUgt_i32 -> "cmp_ugt_i32"
  | CmpUgt_i64 -> "cmp_ugt_i64"
  | CmpUge_i8 -> "cmp_uge_i8"
  | CmpUge_i16 -> "cmp_uge_i16"
  | CmpUge_i32 -> "cmp_uge_i32"
  | CmpUge_i64 -> "cmp_uge_i64"
  | FCmpEq -> "fcmp_eq"
  | FCmpNe -> "fcmp_ne"
  | FCmpLt -> "fcmp_lt"
  | FCmpLe -> "fcmp_le"
  | FCmpGt -> "fcmp_gt"
  | FCmpGe -> "fcmp_ge"
  | SelectOp -> "select"
  | Zext8 -> "zext_i8"
  | Zext16 -> "zext_i16"
  | Zext32 -> "zext_i32"
  | Trunc1 -> "trunc_i1"
  | Trunc8 -> "trunc_i8"
  | Trunc16 -> "trunc_i16"
  | Trunc32 -> "trunc_i32"
  | SiToFp -> "sitofp"
  | FpToSi -> "fptosi"
  | Load8 -> "load_i8"
  | Load16 -> "load_i16"
  | Load32 -> "load_i32"
  | Load64 -> "load_i64"
  | Store8 -> "store_i8"
  | Store16 -> "store_i16"
  | Store32 -> "store_i32"
  | Store64 -> "store_i64"
  | Gep -> "gep"
  | GepConst -> "gep_const"
  | LoadIdx8 -> "load_idx_i8"
  | LoadIdx16 -> "load_idx_i16"
  | LoadIdx32 -> "load_idx_i32"
  | LoadIdx64 -> "load_idx_i64"
  | StoreIdx8 -> "store_idx_i8"
  | StoreIdx16 -> "store_idx_i16"
  | StoreIdx32 -> "store_idx_i32"
  | StoreIdx64 -> "store_idx_i64"
  | Jmp -> "jmp"
  | CondJmp -> "condjmp"
  | JmpEq -> "jmp_eq"
  | JmpNe -> "jmp_ne"
  | JmpSlt -> "jmp_slt"
  | JmpSle -> "jmp_sle"
  | JmpSgt -> "jmp_sgt"
  | JmpSge -> "jmp_sge"
  | RetVal -> "ret"
  | RetVoid -> "ret_void"
  | AbortOp -> "abort"
  | CallV0 -> "call_v0"
  | CallV1 -> "call_v1"
  | CallV2 -> "call_v2"
  | CallV3 -> "call_v3"
  | CallV4 -> "call_v4"
  | CallV5 -> "call_v5"
  | CallR0 -> "call_r0"
  | CallR1 -> "call_r1"
  | CallR2 -> "call_r2"
  | CallR3 -> "call_r3"
  | CallR4 -> "call_r4"

(* All constructors are constant, so their runtime representation is a
   dense range of ints; enumerating through it keeps [all] complete by
   construction. CallR4 must remain the last constructor. *)
let count = 1 + (Obj.magic CallR4 : int)

let all : t list = List.init count (fun i : t -> Obj.magic i)

let to_int (o : t) : int = Obj.magic o

let of_int i : t =
  if i < 0 || i >= count then invalid_arg (Printf.sprintf "Opcode.of_int %d" i)
  else Obj.magic i
