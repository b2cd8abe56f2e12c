module A = Aeq_mem.Arena
module S = Semantics

let width_of = function
  | Types.I1 | Types.I8 -> 8
  | Types.I16 -> 16
  | Types.I32 -> 32
  | Types.I64 | Types.Ptr -> 64
  | Types.F64 -> invalid_arg "Ir_interp: float width"

let run (f : Func.t) mem ~symbols ~args =
  (* Environment: one boxed slot per SSA value, looked up through an
     association step per operand — intentionally mimicking the cost
     profile of interpreting LLVM's in-memory IR. *)
  let env = Hashtbl.create (2 * f.Func.n_values) in
  Array.iteri
    (fun i _ -> Hashtbl.replace env i (if i < Array.length args then args.(i) else 0L))
    f.Func.params;
  let value = function
    | Instr.Vreg v -> (
      match Hashtbl.find_opt env v with
      | Some x -> x
      | None -> invalid_arg (Printf.sprintf "Ir_interp: undefined value %%%d" v))
    | Instr.Imm n -> n
    | Instr.Fimm x -> Int64.bits_of_float x
  in
  let set d v = Hashtbl.replace env d v in
  let eval_binop (op : Instr.binop) ty a b =
    let w = width_of ty in
    match op with
    | Instr.Add -> S.add ~width:w a b
    | Sub -> S.sub ~width:w a b
    | Mul -> S.mul ~width:w a b
    | Div -> S.div ~width:w a b
    | Rem -> S.rem ~width:w a b
    | And -> Int64.logand a b
    | Or -> Int64.logor a b
    | Xor -> Int64.logxor a b
    | Shl -> S.shl ~width:w a b
    | LShr -> S.lshr ~width:w a b
    | AShr -> Int64.shift_right a (Int64.to_int b land 63)
  in
  let eval_icmp (op : Instr.icmp) ty a b =
    let w = width_of ty in
    let r =
      match op with
      | Instr.Eq -> Int64.equal a b
      | Ne -> not (Int64.equal a b)
      | Slt -> Int64.compare a b < 0
      | Sle -> Int64.compare a b <= 0
      | Sgt -> Int64.compare a b > 0
      | Sge -> Int64.compare a b >= 0
      | Ult -> S.ucmp ~width:w a b < 0
      | Ule -> S.ucmp ~width:w a b <= 0
      | Ugt -> S.ucmp ~width:w a b > 0
      | Uge -> S.ucmp ~width:w a b >= 0
    in
    S.bool_i64 r
  in
  let exec_instr (i : Instr.t) =
    match i with
    | Instr.Binop { op; ty; dst; a; b } -> set dst (eval_binop op ty (value a) (value b))
    | Instr.OvfFlag { op; ty; dst; a; b } ->
      let w = width_of ty in
      let ovf =
        match op with
        | Instr.OAdd -> S.add_ovf ~width:w (value a) (value b)
        | OSub -> S.sub_ovf ~width:w (value a) (value b)
        | OMul -> S.mul_ovf ~width:w (value a) (value b)
      in
      set dst (S.bool_i64 ovf)
    | Instr.Fbinop { op; dst; a; b } ->
      let x = S.fp_of_bits (value a) and y = S.fp_of_bits (value b) in
      let r =
        match op with
        | Instr.FAdd -> x +. y
        | FSub -> x -. y
        | FMul -> x *. y
        | FDiv -> x /. y
      in
      set dst (S.bits_of_fp r)
    | Instr.Icmp { op; ty; dst; a; b } -> set dst (eval_icmp op ty (value a) (value b))
    | Instr.Fcmp { op; dst; a; b } ->
      let x = S.fp_of_bits (value a) and y = S.fp_of_bits (value b) in
      let r =
        match op with
        | Instr.FEq -> x = y
        | FNe -> x <> y
        | FLt -> x < y
        | FLe -> x <= y
        | FGt -> x > y
        | FGe -> x >= y
      in
      set dst (S.bool_i64 r)
    | Instr.Select { dst; cond; a; b; _ } ->
      set dst (if Int64.equal (value cond) 0L then value b else value a)
    | Instr.Cast { op; from_ty; to_ty; dst; v } -> (
      let x = value v in
      match op with
      | Instr.Bitcast -> set dst x
      | SiToFp -> set dst (S.bits_of_fp (Int64.to_float x))
      | FpToSi -> set dst (Int64.of_float (S.fp_of_bits x))
      | Zext -> (
        match from_ty with
        | Types.I1 | Types.I64 | Types.Ptr -> set dst x
        | Types.I8 -> set dst (Int64.logand x 0xFFL)
        | Types.I16 -> set dst (Int64.logand x 0xFFFFL)
        | Types.I32 -> set dst (Int64.logand x 0xFFFFFFFFL)
        | Types.F64 -> invalid_arg "zext from float")
      | Sext -> (
        match from_ty with
        | Types.I1 -> set dst (Int64.neg x)
        | _ -> set dst x)
      | Trunc -> (
        match to_ty with
        | Types.I1 -> set dst (Int64.logand x 1L)
        | Types.I8 -> set dst (S.sext8 x)
        | Types.I16 -> set dst (S.sext16 x)
        | Types.I32 -> set dst (S.sext32 x)
        | Types.I64 | Types.Ptr -> set dst x
        | Types.F64 -> invalid_arg "trunc to float"))
    | Instr.Load { ty; dst; addr } -> (
      let p = Int64.to_int (value addr) in
      match ty with
      | Types.I1 | Types.I8 -> set dst (S.sext8 (Int64.of_int (A.get_i8 mem p)))
      | Types.I16 -> set dst (S.sext16 (Int64.of_int (A.get_i16 mem p)))
      | Types.I32 -> set dst (Int64.of_int (A.get_i32 mem p))
      | Types.I64 | Types.Ptr | Types.F64 -> set dst (A.get_i64 mem p))
    | Instr.Store { ty; addr; v } -> (
      let p = Int64.to_int (value addr) in
      let x = value v in
      match ty with
      | Types.I1 | Types.I8 -> A.set_i8 mem p (Int64.to_int x land 0xff)
      | Types.I16 -> A.set_i16 mem p (Int64.to_int x land 0xffff)
      | Types.I32 -> A.set_i32 mem p (Int64.to_int32 x)
      | Types.I64 | Types.Ptr | Types.F64 -> A.set_i64 mem p x)
    | Instr.Gep { dst; base; index; scale; offset } ->
      set dst
        (Int64.add (value base)
           (Int64.of_int ((Int64.to_int (value index) * scale) + offset)))
    | Instr.Call { dst; sym; args = call_args; _ } -> (
      let fn =
        match symbols sym with
        | Some fn -> fn
        | None -> invalid_arg ("Ir_interp: unresolved symbol " ^ sym)
      in
      (* the helper reads operand [i] at byte [8 * i] of a scratch
         register file *)
      let regs = Bytes.create (8 * Array.length call_args) in
      Array.iteri (fun i v -> Bytes.set_int64_ne regs (8 * i) (value v)) call_args;
      let r =
        match (fn, Array.length call_args) with
        | Rt_fn.F0 f, 0 -> f regs
        | Rt_fn.F1 f, 1 -> f regs 0
        | Rt_fn.F2 f, 2 -> f regs 0 8
        | Rt_fn.F3 f, 3 -> f regs 0 8 16
        | Rt_fn.F4 f, 4 -> f regs 0 8 16 24
        | Rt_fn.F5 f, 5 -> f regs 0 8 16 24 32
        | _ -> invalid_arg ("Ir_interp: arity mismatch calling " ^ sym)
      in
      match dst with Some (d, _) -> set d (Int64.of_int r) | None -> ())
  in
  let rec exec_block prev cur =
    let blk = Func.block f cur in
    (* φ nodes read their values on the incoming edge, in parallel. *)
    let phi_values =
      Array.map
        (fun (p : Instr.phi) ->
          match Array.find_opt (fun (pred, _) -> pred = prev) p.incoming with
          | Some (_, v) -> (p.dst, value v)
          | None -> invalid_arg (Printf.sprintf "Ir_interp: phi %%%d missing edge %d" p.dst prev))
        blk.Block.phis
    in
    Array.iter (fun (d, v) -> set d v) phi_values;
    Array.iter exec_instr blk.Block.instrs;
    match blk.Block.term with
    | Instr.Br t -> exec_block cur t
    | Instr.CondBr { cond; if_true; if_false } ->
      exec_block cur (if Int64.equal (value cond) 0L then if_false else if_true)
    | Instr.Ret (Some v) -> value v
    | Instr.Ret None -> 0L
    | Instr.Abort m -> raise (Trap.Error m)
  in
  exec_block (-1) 0
