type insn = {
  op : Opcode.t;
  a : int;
  b : int;
  c : int;
  d : int;
  e : int;
  lit : int64;
}

type t = {
  name : string;
  code : insn array;
  n_reg_bytes : int;
  const_pool : int64 array;
  param_offsets : int array;
  rt_table : Rt_fn.t array;
  messages : string array;
  src_instr_count : int;
}

let pack_scale_offset ~scale ~offset =
  Int64.logor
    (Int64.logand (Int64.of_int scale) 0xFFFFFFFFL)
    (Int64.shift_left (Int64.of_int offset) 32)

let unpack_scale lit = Int64.to_int (Int64.shift_right (Int64.shift_left lit 32) 32)

let unpack_offset lit = Int64.to_int (Int64.shift_right lit 32)
