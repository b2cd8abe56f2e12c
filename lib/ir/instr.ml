type value = Vreg of int | Imm of int64 | Fimm of float

type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | LShr | AShr

type ovf_op = OAdd | OSub | OMul

type fbinop = FAdd | FSub | FMul | FDiv

type icmp = Eq | Ne | Slt | Sle | Sgt | Sge | Ult | Ule | Ugt | Uge

type fcmp = FEq | FNe | FLt | FLe | FGt | FGe

type cast = Zext | Sext | Trunc | SiToFp | FpToSi | Bitcast

type t =
  | Binop of { op : binop; ty : Types.t; dst : int; a : value; b : value }
  | OvfFlag of { op : ovf_op; ty : Types.t; dst : int; a : value; b : value }
  | Fbinop of { op : fbinop; dst : int; a : value; b : value }
  | Icmp of { op : icmp; ty : Types.t; dst : int; a : value; b : value }
  | Fcmp of { op : fcmp; dst : int; a : value; b : value }
  | Select of { ty : Types.t; dst : int; cond : value; a : value; b : value }
  | Cast of { op : cast; from_ty : Types.t; to_ty : Types.t; dst : int; v : value }
  | Load of { ty : Types.t; dst : int; addr : value }
  | Store of { ty : Types.t; addr : value; v : value }
  | Gep of { dst : int; base : value; index : value; scale : int; offset : int }
  | Call of {
      dst : (int * Types.t) option;
      sym : string;
      args : value array;
      arg_tys : Types.t array;
    }

type terminator =
  | Br of int
  | CondBr of { cond : value; if_true : int; if_false : int }
  | Ret of value option
  | Abort of string

type phi = { ty : Types.t; dst : int; incoming : (int * value) array }

let dst_of = function
  | Binop { dst; _ }
  | OvfFlag { dst; _ }
  | Fbinop { dst; _ }
  | Icmp { dst; _ }
  | Fcmp { dst; _ }
  | Select { dst; _ }
  | Cast { dst; _ }
  | Load { dst; _ }
  | Gep { dst; _ } ->
    Some dst
  | Store _ -> None
  | Call { dst; _ } -> Option.map fst dst

let operands = function
  | Binop { a; b; _ } | OvfFlag { a; b; _ } | Fbinop { a; b; _ } | Icmp { a; b; _ }
  | Fcmp { a; b; _ } ->
    [ a; b ]
  | Select { cond; a; b; _ } -> [ cond; a; b ]
  | Cast { v; _ } -> [ v ]
  | Load { addr; _ } -> [ addr ]
  | Store { addr; v; _ } -> [ addr; v ]
  | Gep { base; index; _ } -> [ base; index ]
  | Call { args; _ } -> Array.to_list args

let iter_operands f = function
  | Binop { a; b; _ } | OvfFlag { a; b; _ } | Fbinop { a; b; _ } | Icmp { a; b; _ }
  | Fcmp { a; b; _ } ->
    f a;
    f b
  | Select { cond; a; b; _ } ->
    f cond;
    f a;
    f b
  | Cast { v; _ } -> f v
  | Load { addr; _ } -> f addr
  | Store { addr; v; _ } ->
    f addr;
    f v
  | Gep { base; index; _ } ->
    f base;
    f index
  | Call { args; _ } -> Array.iter f args

let with_operands i ops =
  match (i, ops) with
  | Binop r, [ a; b ] -> Binop { r with a; b }
  | OvfFlag r, [ a; b ] -> OvfFlag { r with a; b }
  | Fbinop r, [ a; b ] -> Fbinop { r with a; b }
  | Icmp r, [ a; b ] -> Icmp { r with a; b }
  | Fcmp r, [ a; b ] -> Fcmp { r with a; b }
  | Select r, [ cond; a; b ] -> Select { r with cond; a; b }
  | Cast r, [ v ] -> Cast { r with v }
  | Load r, [ addr ] -> Load { r with addr }
  | Store r, [ addr; v ] -> Store { r with addr; v }
  | Gep r, [ base; index ] -> Gep { r with base; index }
  | Call r, args -> Call { r with args = Array.of_list args }
  | _ -> invalid_arg "Instr.with_operands: arity mismatch"

let with_dst i d =
  match i with
  | Binop r -> Binop { r with dst = d }
  | OvfFlag r -> OvfFlag { r with dst = d }
  | Fbinop r -> Fbinop { r with dst = d }
  | Icmp r -> Icmp { r with dst = d }
  | Fcmp r -> Fcmp { r with dst = d }
  | Select r -> Select { r with dst = d }
  | Cast r -> Cast { r with dst = d }
  | Load r -> Load { r with dst = d }
  | Gep r -> Gep { r with dst = d }
  | Store _ as s -> s
  | Call r -> Call { r with dst = Option.map (fun (_, ty) -> (d, ty)) r.dst }

let has_side_effect = function
  | Store _ | Call _ -> true
  | Binop _ | OvfFlag _ | Fbinop _ | Icmp _ | Fcmp _ | Select _ | Cast _ | Load _ | Gep _
    ->
    false

let value_equal a b =
  match (a, b) with
  | Vreg x, Vreg y -> x = y
  | Imm x, Imm y -> Int64.equal x y
  | Fimm x, Fimm y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | (Vreg _ | Imm _ | Fimm _), _ -> false

let result_ty = function
  | Binop { ty; _ } -> Some ty
  | OvfFlag _ -> Some Types.I1
  | Fbinop _ -> Some Types.F64
  | Icmp _ -> Some Types.I1
  | Fcmp _ -> Some Types.I1
  | Select { ty; _ } -> Some ty
  | Cast { to_ty; _ } -> Some to_ty
  | Load { ty; _ } -> Some ty
  | Gep _ -> Some Types.Ptr
  | Store _ -> None
  | Call { dst; _ } -> Option.map snd dst
