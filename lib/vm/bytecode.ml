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
