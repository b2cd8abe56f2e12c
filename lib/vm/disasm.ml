let insn (i : Bytecode.insn) =
  Printf.sprintf "%-14s %d %d %d %d %d %d" (Opcode.to_string i.op) i.a i.b i.c i.d i.e i.lit

let program (p : Bytecode.t) =
  let b = Buffer.create 256 in
  let n = Array.length p.Bytecode.code in
  Buffer.add_string b
    (Printf.sprintf "; %s: %d insns, %d reg bytes, %d consts\n" p.Bytecode.name n
       p.Bytecode.n_reg_bytes
       (Array.length p.Bytecode.const_pool));
  for idx = 0 to n - 1 do
    Buffer.add_string b (Printf.sprintf "0x%04x %s\n" idx (insn (Bytecode.get p idx)))
  done;
  Buffer.contents b
