exception Unsupported of string

type insn = { op : Opcode.t; a : int; b : int; c : int; d : int; e : int; lit : int }

type t = {
  name : string;
  code : int array;
  ext : int array;
  lits : int array;
  n_reg_bytes : int;
  const_pool : int64 array;
  param_offsets : int array;
  rt_table : Rt_fn.t array;
  messages : string array;
  src_instr_count : int;
}

let op_bits = 8

let ab_bits = 27

let cde_bits = 21

let op_mask = (1 lsl op_bits) - 1

let ab_mask = (1 lsl ab_bits) - 1

let cde_mask = (1 lsl cde_bits) - 1

(* Built only when a field does not fit, so encoding well-formed
   programs formats nothing. *)
let too_wide field v bits =
  raise
    (Unsupported
       (Printf.sprintf "bytecode field %s = %d does not fit in %d unsigned bits" field v
          bits))

let encode_code op ~a ~b =
  if a lsr ab_bits <> 0 then too_wide "a" a ab_bits;
  if b lsr ab_bits <> 0 then too_wide "b" b ab_bits;
  Opcode.to_int op lor (a lsl op_bits) lor (b lsl (op_bits + ab_bits))

let encode_ext ~c ~d ~e =
  if c lsr cde_bits <> 0 then too_wide "c" c cde_bits;
  if d lsr cde_bits <> 0 then too_wide "d" d cde_bits;
  if e lsr cde_bits <> 0 then too_wide "e" e cde_bits;
  c lor (d lsl cde_bits) lor (e lsl (2 * cde_bits))

let get t pc =
  let w = t.code.(pc) and x = t.ext.(pc) in
  {
    op = Opcode.of_int (w land op_mask);
    a = (w lsr op_bits) land ab_mask;
    b = (w lsr (op_bits + ab_bits)) land ab_mask;
    c = x land cde_mask;
    d = (x lsr cde_bits) land cde_mask;
    e = (x lsr (2 * cde_bits)) land cde_mask;
    lit = t.lits.(pc);
  }

let set t pc i =
  let w = encode_code i.op ~a:i.a ~b:i.b and x = encode_ext ~c:i.c ~d:i.d ~e:i.e in
  t.code.(pc) <- w;
  t.ext.(pc) <- x;
  t.lits.(pc) <- i.lit

(* scale in the low 32 bits, offset in the 31 above: the same number
   as the int64 packing [offset lsl 32 lor (scale land 0xffff_ffff)]
   for every offset that fits *)
let pack_scale_offset ~scale ~offset =
  if scale < -0x8000_0000 || scale > 0x7fff_ffff then
    raise
      (Unsupported
         (Printf.sprintf "GEP literal scale %d does not fit in 32 signed bits" scale));
  if offset < -0x4000_0000 || offset > 0x3fff_ffff then
    raise
      (Unsupported
         (Printf.sprintf "GEP literal offset %d does not fit in 31 signed bits" offset));
  (offset lsl 32) lor (scale land 0xffff_ffff)

let unpack_scale lit = (lit lsl 31) asr 31

let unpack_offset lit = lit asr 32

(* The fields of [op] that name registers, as a mask over [a] (bit 0)
   to [e] (bit 4): the fields [Interp] and [Closure_compile] read and
   write in the register file. The others are jump targets, an abort
   message index or unused. *)
let register_fields (op : Opcode.t) =
  match op with
  | Jmp | RetVoid | AbortOp | CallV0 -> 0
  | CondJmp | RetVal | CallV1 | CallR0 -> 0b1
  | Mov | Zext8 | Zext16 | Zext32 | Trunc1 | Trunc8 | Trunc16 | Trunc32 | SiToFp | FpToSi
  | Load8 | Load16 | Load32 | Load64 | Store8 | Store16 | Store32 | Store64 | GepConst | JmpEq
  | JmpNe | JmpSlt | JmpSle | JmpSgt | JmpSge | CallV2 | CallR1 ->
    0b11
  | SelectOp | CallV4 | CallR3 -> 0b1111
  | CallV5 | CallR4 -> 0b11111
  | _ -> 0b111

let check_registers t =
  let n = t.n_reg_bytes in
  let refuse fmt = Printf.ksprintf (fun m -> invalid_arg ("Bytecode " ^ t.name ^ ": " ^ m)) fmt in
  let ok off = off >= 0 && off land 7 = 0 && off + 8 <= n in
  let n_code = Array.length t.code in
  if Array.length t.ext <> n_code || Array.length t.lits <> n_code then
    refuse "instruction arrays of different lengths";
  if 8 * Array.length t.const_pool > n then
    refuse "%d constants do not fit a %d-byte register file" (Array.length t.const_pool) n;
  Array.iteri
    (fun k off -> if not (ok off) then refuse "parameter %d at register offset %d" k off)
    t.param_offsets;
  let check pc op field v =
    if not (ok v) then
      refuse "pc %d: %s register %s = %d is not an aligned slot of a %d-byte file" pc
        (Opcode.to_string op) field v n
  in
  for pc = 0 to n_code - 1 do
    let w = t.code.(pc) and x = t.ext.(pc) in
    if w land op_mask >= Opcode.count then refuse "pc %d: opcode %d out of range" pc (w land op_mask);
    let op = Opcode.of_int (w land op_mask) in
    let mask = register_fields op in
    if mask land 0b1 <> 0 then check pc op "a" ((w lsr op_bits) land ab_mask);
    if mask land 0b10 <> 0 then check pc op "b" ((w lsr (op_bits + ab_bits)) land ab_mask);
    if mask land 0b100 <> 0 then check pc op "c" (x land cde_mask);
    if mask land 0b1000 <> 0 then check pc op "d" ((x lsr cde_bits) land cde_mask);
    if mask land 0b10000 <> 0 then check pc op "e" ((x lsr (2 * cde_bits)) land cde_mask)
  done
