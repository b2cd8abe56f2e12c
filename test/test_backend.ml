(* Tests for the closure backend and compile drivers: equivalence with
   the bytecode interpreter across modes, cost-model shape, and
   the speedup report. *)

module A = Aeq_mem.Arena
module CM = Aeq_backend.Cost_model

let no_symbols : Aeq_vm.Rt_fn.resolver = fun _ -> None

let outcome run = match run () with v -> Ok v | exception Trap.Error m -> Error m

let run_all_modes seed =
  let f = Gen_ir.generate ~complexity:15 seed in
  let args =
    [| Int64.of_int (seed * 131); Int64.of_int (seed lxor 777); Int64.of_int (seed - 40) |]
  in
  let with_mem k =
    let mem = A.create () in
    let scratch = A.alloc (A.allocator mem) (8 * Gen_ir.n_mem_words) in
    let full_args = Array.append args [| Int64.of_int scratch |] in
    let out = k mem full_args in
    let words = Array.init Gen_ir.n_mem_words (fun i -> A.get_i64 mem (scratch + (8 * i))) in
    (out, words)
  in
  let ir =
    with_mem (fun mem full ->
        outcome (fun () -> Aeq_vm.Ir_interp.run f mem ~symbols:no_symbols ~args:full))
  in
  let bc =
    with_mem (fun mem full ->
        let prog = Aeq_vm.Translate.translate ~symbols:no_symbols f in
        outcome (fun () -> Aeq_vm.Interp.run prog mem ~args:full ()))
  in
  let unopt =
    with_mem (fun mem full ->
        let prog = Aeq_vm.Translate.translate ~symbols:no_symbols f in
        let c =
          Aeq_backend.Compiler.compile_unopt_of_bytecode ~cost_model:CM.off ~mem
            ~n_instrs:(Func.n_instrs f) prog
        in
        outcome (fun () -> Aeq_backend.Closure_compile.run c.Aeq_backend.Compiler.exec ~args:full ()))
  in
  let opt =
    with_mem (fun mem full ->
        let c =
          Aeq_backend.Compiler.compile ~cost_model:CM.off ~symbols:no_symbols ~mem
            ~mode:CM.Opt f
        in
        outcome (fun () -> Aeq_backend.Closure_compile.run c.Aeq_backend.Compiler.exec ~args:full ()))
  in
  (ir, bc, unopt, opt)

let modes_agree seed =
  let (ir_o, ir_m), (bc_o, bc_m), (u_o, u_m), (o_o, o_m) = run_all_modes seed in
  ir_o = bc_o && bc_o = u_o && u_o = o_o
  && match ir_o with Ok _ -> ir_m = bc_m && bc_m = u_m && u_m = o_m | Error _ -> true

let prop_all_modes_agree =
  QCheck.Test.make ~name:"bytecode = unopt = opt = IR on random programs" ~count:150
    QCheck.small_nat modes_agree

let test_unopt_runs_simple () =
  let b = Builder.create ~name:"s" ~params:[ Types.I64 ] in
  let r = Builder.binop b Instr.Mul Types.I64 (Builder.param b 0) (Instr.Imm 7L) in
  Builder.ret b r;
  let f = Builder.finish b in
  Layout.normalize f;
  let mem = A.create () in
  let prog = Aeq_vm.Translate.translate ~symbols:no_symbols f in
  let c =
    Aeq_backend.Compiler.compile_unopt_of_bytecode ~cost_model:CM.off ~mem
      ~n_instrs:(Func.n_instrs f) prog
  in
  Alcotest.(check int64) "6*7" 42L
    (Aeq_backend.Closure_compile.run c.Aeq_backend.Compiler.exec ~args:[| 6L |] ());
  Alcotest.check_raises "compile has no unopt path"
    (Invalid_argument "Compiler.compile: use compile_unopt_of_bytecode") (fun () ->
      ignore
        (Aeq_backend.Compiler.compile ~cost_model:CM.off ~symbols:no_symbols ~mem
           ~mode:CM.Unopt f))

let test_opt_shrinks_ir () =
  (* a function with foldable constants and CSE opportunities *)
  let b = Builder.create ~name:"shrink" ~params:[ Types.I64 ] in
  let p = Builder.param b 0 in
  let a1 = Builder.binop b Instr.Add Types.I64 p (Instr.Imm 1L) in
  let a2 = Builder.binop b Instr.Add Types.I64 p (Instr.Imm 1L) in
  let c1 = Builder.binop b Instr.Mul Types.I64 (Instr.Imm 6L) (Instr.Imm 7L) in
  let r1 = Builder.binop b Instr.Add Types.I64 a1 a2 in
  let r2 = Builder.binop b Instr.Add Types.I64 r1 c1 in
  Builder.ret b r2;
  let f = Builder.finish b in
  Layout.normalize f;
  let mem = A.create () in
  let c =
    Aeq_backend.Compiler.compile ~cost_model:CM.off ~symbols:no_symbols ~mem ~mode:CM.Opt f
  in
  Alcotest.(check bool) "fewer instructions after O2" true
    (c.Aeq_backend.Compiler.n_instrs_after < Func.n_instrs f);
  Alcotest.(check int64) "still correct" (Int64.of_int ((10 + 1) * 2 + 42))
    (Aeq_backend.Closure_compile.run c.Aeq_backend.Compiler.exec ~args:[| 10L |] ())

let test_cost_model_shape () =
  let m = CM.default in
  (* bytecode < unopt < opt at every size *)
  List.iter
    (fun n ->
      let bc = CM.compile_time m CM.Bytecode n in
      let u = CM.compile_time m CM.Unopt n in
      let o = CM.compile_time m CM.Opt n in
      Alcotest.(check bool) "bc < unopt" true (bc < u);
      Alcotest.(check bool) "unopt < opt" true (u < o))
    [ 100; 1_000; 10_000; 100_000 ];
  (* the quadratic term dominates for mega-functions: opt(10k) > 4x opt(2.5k) x 4 *)
  let o1 = CM.compile_time m CM.Opt 10_000 and o2 = CM.compile_time m CM.Opt 100_000 in
  Alcotest.(check bool) "superlinear growth" true (o2 > 10.0 *. o1);
  (* unopt is near-linear: 10x size is < 15x time *)
  let u1 = CM.compile_time m CM.Unopt 10_000 and u2 = CM.compile_time m CM.Unopt 100_000 in
  Alcotest.(check bool) "unopt near-linear" true (u2 < 15.0 *. u1)

let test_simulated_latency_enforced () =
  let b = Builder.create ~name:"lat" ~params:[ Types.I64 ] in
  Builder.ret b (Builder.param b 0);
  let f = Builder.finish b in
  Layout.normalize f;
  let mem = A.create () in
  (* tiny function: modelled opt time still has its base cost *)
  let c =
    Aeq_backend.Compiler.compile ~cost_model:CM.default ~symbols:no_symbols ~mem
      ~mode:CM.Opt f
  in
  Alcotest.(check bool) "at least base latency" true
    (c.Aeq_backend.Compiler.compile_seconds >= CM.default.CM.opt_base *. 0.9)

(* [Calibration.measure] runs no kernel: it reports the estimate an
   engine updated last, at or above the floors. *)
let test_calibration_reports_estimate () =
  let module C = Aeq_backend.Calibration in
  let sane name ~floor v =
    Alcotest.(check bool)
      (Printf.sprintf "%s = %g is finite and at least its floor %g" name v floor)
      true
      (Float.is_finite v && v >= floor)
  in
  let cal = C.measure () in
  sane "speedup_unopt" ~floor:1.01 cal.C.speedup_unopt;
  sane "speedup_opt" ~floor:1.02 cal.C.speedup_opt;
  let e = C.estimate CM.default in
  let seeds = C.current e in
  Alcotest.(check bool)
    "a fresh estimate is at the seeds" true
    (seeds = { C.speedup_unopt = CM.default.CM.speedup_unopt; speedup_opt = CM.default.CM.speedup_opt });
  C.observe e ~from:CM.Bytecode ~to_:CM.Opt ~ratio:2.0;
  Alcotest.(check bool) "the update moved it" true (C.current e <> seeds);
  Alcotest.(check bool) "measure reports the latest update" true (C.measure () = C.current e)

(* [sum over i in [0, n) of body b col i], where [col] is the first
   parameter and [n] the second *)
let column_kernel name body =
  let b = Builder.create ~name ~params:[ Types.Ptr; Types.I64 ] in
  let head = Builder.new_block b in
  let loop = Builder.new_block b in
  let exit = Builder.new_block b in
  Builder.br b head;
  Builder.switch_to b head;
  let i = Builder.phi b Types.I64 [ (0, Instr.Imm 0L) ] in
  let acc = Builder.phi b Types.I64 [ (0, Instr.Imm 0L) ] in
  let c = Builder.icmp b Instr.Slt Types.I64 i (Builder.param b 1) in
  Builder.condbr b c ~if_true:loop ~if_false:exit;
  Builder.switch_to b loop;
  let w = body b (Builder.param b 0) i in
  let acc' = Builder.binop b Instr.Add Types.I64 acc w in
  let i' = Builder.binop b Instr.Add Types.I64 i (Instr.Imm 1L) in
  (* a checked operation in [body] ends [loop] in a new block *)
  let latch = Builder.current_block b in
  Builder.br b head;
  Builder.add_phi_incoming b ~block:head ~dst:i ~pred:latch i';
  Builder.add_phi_incoming b ~block:head ~dst:acc ~pred:latch acc';
  Builder.switch_to b exit;
  Builder.ret b acc;
  let f = Builder.finish b in
  Layout.normalize f;
  f

let bytes_of = function
  | Types.I8 -> 1
  | Types.I16 -> 2
  | Types.I32 -> 4
  | _ -> 8

(* sext(load ty col[i]): gep, load and sext translate to one LoadIdx *)
let load_kernel ty =
  column_kernel "load" (fun b col i ->
      let addr = Builder.gep b ~base:col ~index:i ~scale:(bytes_of ty) ~offset:0 in
      let v = Builder.load b ty addr in
      if Types.equal ty Types.I64 then v
      else Builder.cast b Instr.Sext ~from_ty:ty ~to_ty:Types.I64 v)

(* col[i] <- col[i], then i: each gep and its load or store
   translate to one LoadIdx and one StoreIdx *)
let store_kernel ty =
  column_kernel "store" (fun b col i ->
      let scale = bytes_of ty in
      let v = Builder.load b ty (Builder.gep b ~base:col ~index:i ~scale ~offset:0) in
      let addr = Builder.gep b ~base:col ~index:i ~scale ~offset:0 in
      Builder.store b ty ~addr v;
      i)

(* col[i] <- trunc col[i], summed sign-extended back: the truncated
   low bytes are the ones already stored, so a run changes nothing *)
let trunc_store_kernel ty =
  column_kernel "trunc" (fun b col i ->
      let v = Builder.load b Types.I64 (Builder.gep b ~base:col ~index:i ~scale:8 ~offset:0) in
      let t = Builder.cast b Instr.Trunc ~from_ty:Types.I64 ~to_ty:ty v in
      Builder.store b ty ~addr:(Builder.gep b ~base:col ~index:i ~scale:8 ~offset:0) t;
      Builder.cast b Instr.Sext ~from_ty:ty ~to_ty:Types.I64 t)

(* col[i] <- col[i] through one address: a gep with two users stays a
   Gep, and its load and store the plain Load and Store *)
let same_address_kernel ty =
  column_kernel "same address" (fun b col i ->
      let addr = Builder.gep b ~base:col ~index:i ~scale:(bytes_of ty) ~offset:0 in
      let v = Builder.load b ty addr in
      Builder.store b ty ~addr v;
      if Types.equal ty Types.I64 then v
      else Builder.cast b Instr.Sext ~from_ty:ty ~to_ty:Types.I64 v)

(* the address itself, summed: a Gep (register index) or a GepConst
   (constant index) that no load or store absorbs *)
let gep_kernel index =
  column_kernel "gep" (fun b col i ->
      Builder.gep b ~base:col ~index:(index i) ~scale:8 ~offset:16)

let rows = 20_000

(* minor words per row of [run], which must return [expected] *)
let check_words_per_row name ~expected run =
  Alcotest.(check int64) (name ^ ": result") expected (run ());
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (run ()));
  let words = (Gc.minor_words () -. w0) /. float_of_int rows in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.3f minor words per row (< 0.05)" name words)
    true (words < 0.05)

let has_op (prog : Aeq_vm.Bytecode.t) op =
  let n = Array.length prog.code in
  let rec go pc = pc < n && ((Aeq_vm.Bytecode.get prog pc).op = op || go (pc + 1)) in
  go 0

(* A 4-byte load reaches the register file as an unboxed int: the
   LoadIdx32 kernel allocates nothing per row in the interpreter or in
   the closure tier (a boxed int32 costs about 3 words per load). *)
let test_load32_allocation_free () =
  let mem = A.create ~chunk_size:(4 * rows) () in
  let col = A.alloc (A.allocator mem) (4 * rows) in
  for i = 0 to rows - 1 do
    A.set_i32 mem (col + (4 * i)) (Int32.of_int (i - 15_000))
  done;
  let expected = Int64.of_int (((rows - 1) * rows / 2) - (15_000 * rows)) in
  let f = load_kernel Types.I32 in
  let prog = Aeq_vm.Translate.translate ~symbols:no_symbols f in
  Alcotest.(check bool) "the kernel loads through LoadIdx32" true
    (has_op prog Aeq_vm.Opcode.LoadIdx32);
  let args = [| Int64.of_int col; Int64.of_int rows |] in
  let regs = Aeq_vm.Interp.scratch prog in
  check_words_per_row "bytecode" ~expected (fun () ->
      Aeq_vm.Interp.run prog mem ~regs ~args ());
  let c =
    Aeq_backend.Compiler.compile_unopt_of_bytecode ~cost_model:CM.off ~mem
      ~n_instrs:(Func.n_instrs f) prog
  in
  let exec = c.Aeq_backend.Compiler.exec in
  let regs = Aeq_backend.Closure_compile.scratch exec in
  check_words_per_row "unopt closures" ~expected (fun () ->
      Aeq_backend.Closure_compile.run exec ~regs ~args ())

(* The other indexed loads, the indexed and plain stores, 8-byte
   loads, truncations and address arithmetic allocate nothing per row
   either, in the interpreter or in the closure tier: the interpreter
   decodes each field from the packed words as an int, 8-byte cells
   and 4- and 8-byte stores move between the arena and the register
   file without a boxed int32 or int64, and a truncation sign-extends
   as an int. *)
let test_indexed_ops_allocation_free () =
  let mem = A.create ~chunk_size:(8 * rows) () in
  let col = A.alloc (A.allocator mem) (8 * rows) in
  let args = [| Int64.of_int col; Int64.of_int rows |] in
  List.iter
    (fun (op, f) ->
      let name = Aeq_vm.Opcode.to_string op in
      for i = 0 to rows - 1 do
        A.set_i64 mem (col + (8 * i)) (Int64.of_int ((i * 7919) - 40_000))
      done;
      let expected = Aeq_vm.Ir_interp.run f mem ~symbols:no_symbols ~args in
      let prog = Aeq_vm.Translate.translate ~symbols:no_symbols f in
      Alcotest.(check bool) (name ^ ": emitted") true (has_op prog op);
      let regs = Aeq_vm.Interp.scratch prog in
      check_words_per_row (name ^ " bytecode") ~expected (fun () ->
          Aeq_vm.Interp.run prog mem ~regs ~args ());
      let c =
        Aeq_backend.Compiler.compile_unopt_of_bytecode ~cost_model:CM.off ~mem
          ~n_instrs:(Func.n_instrs f) prog
      in
      let exec = c.Aeq_backend.Compiler.exec in
      let regs = Aeq_backend.Closure_compile.scratch exec in
      check_words_per_row (name ^ " unopt closures") ~expected (fun () ->
          Aeq_backend.Closure_compile.run exec ~regs ~args ()))
    [
      (Aeq_vm.Opcode.LoadIdx8, load_kernel Types.I8);
      (Aeq_vm.Opcode.LoadIdx16, load_kernel Types.I16);
      (Aeq_vm.Opcode.LoadIdx64, load_kernel Types.I64);
      (Aeq_vm.Opcode.StoreIdx8, store_kernel Types.I8);
      (Aeq_vm.Opcode.StoreIdx16, store_kernel Types.I16);
      (Aeq_vm.Opcode.StoreIdx32, store_kernel Types.I32);
      (Aeq_vm.Opcode.StoreIdx64, store_kernel Types.I64);
      (Aeq_vm.Opcode.Load64, same_address_kernel Types.I64);
      (Aeq_vm.Opcode.Store32, same_address_kernel Types.I32);
      (Aeq_vm.Opcode.Store64, same_address_kernel Types.I64);
      (Aeq_vm.Opcode.Trunc8, trunc_store_kernel Types.I8);
      (Aeq_vm.Opcode.Trunc16, trunc_store_kernel Types.I16);
      (Aeq_vm.Opcode.Trunc32, trunc_store_kernel Types.I32);
      (Aeq_vm.Opcode.Gep, gep_kernel Fun.id);
      (Aeq_vm.Opcode.GepConst, gep_kernel (fun _ -> Instr.Imm 3L));
    ]

(* ---- arithmetic, compares and calls ---------------------------- *)

(* [v] at [ty]: truncated below 64 bits, as generated code narrows a
   value before narrow arithmetic *)
let narrow b ty v =
  if Types.equal ty Types.I64 then v else Builder.cast b Instr.Trunc ~from_ty:Types.I64 ~to_ty:ty v

let widen b ty v =
  if Types.equal ty Types.I64 then v else Builder.cast b Instr.Sext ~from_ty:ty ~to_ty:Types.I64 v

let cell b col i = Builder.load b Types.I64 (Builder.gep b ~base:col ~index:i ~scale:8 ~offset:0)

let index _ i = i

let imm n _ _ = Instr.Imm n

(* col[i] op rhs at [ty], widened back *)
let binop_kernel op ty rhs =
  column_kernel "binop" (fun b col i ->
      let x = narrow b ty (cell b col i) and y = narrow b ty (rhs b i) in
      widen b ty (Builder.binop b op ty x y))

(* col[i] op rhs with the overflow trap: fused into one AddChk, SubChk
   or MulChk *)
let checked_kernel op ty rhs =
  column_kernel "checked" (fun b col i ->
      let x = narrow b ty (cell b col i) and y = narrow b ty (rhs b i) in
      widen b ty (Builder.checked b op ty x y))

let zext1 b v = Builder.cast b Instr.Zext ~from_ty:Types.I1 ~to_ty:Types.I64 v

let icmp_kernel op ty =
  column_kernel "icmp" (fun b col i ->
      let x = narrow b ty (cell b col i) and y = narrow b ty i in
      zext1 b (Builder.icmp b op ty x y))

(* The overflow flag as a value, the translator's unfused fallback: the
   builder emits a flag only to feed its trap, so an [icmp eq] at [ty]
   stands in for it and is swapped for the flag once [f] is built. *)
let swap_in_flags op ty (f : Func.t) =
  Array.iter
    (fun (blk : Block.t) ->
      blk.Block.instrs <-
        Array.map
          (function
            | Instr.Icmp { op = Instr.Eq; ty = t; dst; a; b } when Types.equal t ty ->
              Instr.OvfFlag { op; ty; dst; a; b }
            | i -> i)
          blk.Block.instrs)
    f.Func.blocks;
  Verify.run f;
  f

let ovf_kernel op ty =
  swap_in_flags op ty
    (column_kernel "ovf" (fun b col i ->
         let x = narrow b ty (cell b col i) and y = narrow b ty i in
         zext1 b (Builder.icmp b Instr.Eq ty x y)))

(* col[i] and i + 1 as floats, combined, and back *)
let float_kernel op =
  column_kernel "float" (fun b col i ->
      let fp v = Builder.cast b Instr.SiToFp ~from_ty:Types.I64 ~to_ty:Types.F64 v in
      let x = fp (cell b col i) and y = fp (Builder.binop b Instr.Add Types.I64 i (Instr.Imm 1L)) in
      Builder.cast b Instr.FpToSi ~from_ty:Types.F64 ~to_ty:Types.I64 (Builder.fbinop b op x y))

let fcmp_kernel op =
  column_kernel "fcmp" (fun b col i ->
      let fp v = Builder.cast b Instr.SiToFp ~from_ty:Types.I64 ~to_ty:Types.F64 v in
      zext1 b (Builder.fcmp b op (fp (cell b col i)) (fp i)))

let zext_kernel ty =
  column_kernel "zext" (fun b col i ->
      Builder.cast b Instr.Zext ~from_ty:ty ~to_ty:Types.I64 (narrow b ty (cell b col i)))

(* fused pairs of the closure tier: a mask feeding checked arithmetic,
   a compare feeding a select *)
let mask_checked_kernel =
  column_kernel "mask checked" (fun b col i ->
      let m = Builder.binop b Instr.And Types.I64 (cell b col i) (Instr.Imm 0xFFFFL) in
      Builder.checked b Instr.OAdd Types.I64 m i)

let cmp_select_kernel =
  column_kernel "cmp select" (fun b col i ->
      let x = cell b col i in
      let c = Builder.icmp b Instr.Slt Types.I64 x i in
      Builder.select b Types.I64 c x i)

(* Helpers of every arity that allocate nothing: each returns the sum
   of its operands' low bytes, and a void one adds it to [calls]. *)
let calls = ref 0

let low regs o = Int64.to_int (Aeq_vm.Rt_fn.get regs o) land 0xff

let call_symbols : Aeq_vm.Rt_fn.resolver =
  let module R = Aeq_vm.Rt_fn in
  function
  | "f0" -> Some (R.F0 (fun _ -> 1))
  | "f1" -> Some (R.F1 (fun regs a -> low regs a))
  | "f2" -> Some (R.F2 (fun regs a b -> low regs a + low regs b))
  | "f3" -> Some (R.F3 (fun regs a b c -> low regs a + low regs b + low regs c))
  | "f4" -> Some (R.F4 (fun regs a b c d -> low regs a + low regs b + low regs c + low regs d))
  | "v0" -> Some (R.F0 (fun _ -> incr calls; 0))
  | "v1" -> Some (R.F1 (fun regs a -> calls := !calls + low regs a; 0))
  | "v2" -> Some (R.F2 (fun regs a b -> calls := !calls + low regs a + low regs b; 0))
  | "v3" ->
    Some (R.F3 (fun regs a b c -> calls := !calls + low regs a + low regs b + low regs c; 0))
  | "v4" ->
    Some
      (R.F4
         (fun regs a b c d ->
           calls := !calls + low regs a + low regs b + low regs c + low regs d;
           0))
  | "v5" ->
    Some
      (R.F5
         (fun regs a b c d e ->
           calls := !calls + low regs a + low regs b + low regs c + low regs d + low regs e;
           0))
  | _ -> None

(* the first [n] of col[i], i, col[i], i, col[i] *)
let call_args b col i n =
  let x = cell b col i in
  List.init n (fun k -> ((if k mod 2 = 0 then x else i), Types.I64))

let call_kernel n =
  column_kernel "call" (fun b col i ->
      Builder.call b Types.I64 (Printf.sprintf "f%d" n) (call_args b col i n))

let call_void_kernel n =
  column_kernel "call void" (fun b col i ->
      Builder.call_void b (Printf.sprintf "v%d" n) (call_args b col i n);
      i)

(* Every integer arithmetic, compare and call opcode allocates nothing
   per row in the interpreter or in the closure tier: narrow, checked
   and unsigned operations inline as int64 primitives in each tier
   instead of calling [Semantics], whose int64 arguments and results
   are boxed, and a runtime call hands its helper the register file
   and operand offsets ([Rt_fn]'s convention) instead of boxed
   operands. *)
let test_arith_call_ops_allocation_free () =
  let module Op = Aeq_vm.Opcode in
  let mem = A.create ~chunk_size:(8 * rows) () in
  let col = A.alloc (A.allocator mem) (8 * rows) in
  for i = 0 to rows - 1 do
    A.set_i64 mem (col + (8 * i)) (Int64.of_int ((i * 7919) - 40_000))
  done;
  let args = [| Int64.of_int col; Int64.of_int rows |] in
  let op_named name = List.find (fun o -> Op.to_string o = name) Op.all in
  let widths = [ (Types.I8, 8); (Types.I16, 16); (Types.I32, 32); (Types.I64, 64) ] in
  let narrow_widths = List.filter (fun (_, w) -> w < 64) widths in
  let wide = List.filter (fun (_, w) -> w >= 32) widths in
  (* [kernel ty] at each width, expected to emit [name_iW] *)
  let at ws name kernel =
    List.map (fun (ty, w) -> (op_named (Printf.sprintf "%s_i%d" name w), kernel ty)) ws
  in
  let kernels =
    List.concat
      [
        at narrow_widths "add" (fun ty -> binop_kernel Instr.Add ty index);
        at narrow_widths "sub" (fun ty -> binop_kernel Instr.Sub ty index);
        at narrow_widths "mul" (fun ty -> binop_kernel Instr.Mul ty index);
        at widths "div" (fun ty -> binop_kernel Instr.Div ty (imm 3L));
        at widths "rem" (fun ty -> binop_kernel Instr.Rem ty (imm 3L));
        at widths "shl" (fun ty -> binop_kernel Instr.Shl ty (imm 3L));
        at widths "lshr" (fun ty -> binop_kernel Instr.LShr ty (imm 3L));
        at wide "add_chk" (fun ty -> checked_kernel Instr.OAdd ty index);
        at wide "sub_chk" (fun ty -> checked_kernel Instr.OSub ty index);
        at wide "mul_chk" (fun ty -> checked_kernel Instr.OMul ty (imm 3L));
        at wide "ovf_add" (ovf_kernel Instr.OAdd);
        at wide "ovf_sub" (ovf_kernel Instr.OSub);
        at wide "ovf_mul" (ovf_kernel Instr.OMul);
        at widths "cmp_ult" (icmp_kernel Instr.Ult);
        at widths "cmp_ule" (icmp_kernel Instr.Ule);
        at widths "cmp_ugt" (icmp_kernel Instr.Ugt);
        at widths "cmp_uge" (icmp_kernel Instr.Uge);
        List.map
          (fun (name, op) -> (op_named name, icmp_kernel op Types.I64))
          [ ("cmp_eq", Instr.Eq); ("cmp_ne", Instr.Ne); ("cmp_slt", Instr.Slt);
            ("cmp_sle", Instr.Sle); ("cmp_sgt", Instr.Sgt); ("cmp_sge", Instr.Sge) ];
        List.map
          (fun (name, op) -> (op_named name, binop_kernel op Types.I64 index))
          [ ("add_i64", Instr.Add); ("sub_i64", Instr.Sub); ("mul_i64", Instr.Mul);
            ("and", Instr.And); ("or", Instr.Or); ("xor", Instr.Xor) ];
        [ (op_named "ashr", binop_kernel Instr.AShr Types.I64 (imm 3L)) ];
        List.map
          (fun (name, op) -> (op_named name, float_kernel op))
          [ ("fadd", Instr.FAdd); ("fsub", Instr.FSub); ("fmul", Instr.FMul); ("fdiv", Instr.FDiv) ];
        List.map
          (fun (name, op) -> (op_named name, fcmp_kernel op))
          [ ("fcmp_eq", Instr.FEq); ("fcmp_ne", Instr.FNe); ("fcmp_lt", Instr.FLt);
            ("fcmp_le", Instr.FLe); ("fcmp_gt", Instr.FGt); ("fcmp_ge", Instr.FGe) ];
        at narrow_widths "zext" zext_kernel;
        [ (Op.And64, mask_checked_kernel); (Op.SelectOp, cmp_select_kernel) ];
        List.init 5 (fun n -> (op_named (Printf.sprintf "call_r%d" n), call_kernel n));
        List.init 6 (fun n -> (op_named (Printf.sprintf "call_v%d" n), call_void_kernel n));
      ]
  in
  List.iter
    (fun (op, f) ->
      let name = Op.to_string op in
      let expected = Aeq_vm.Ir_interp.run f mem ~symbols:call_symbols ~args in
      let prog = Aeq_vm.Translate.translate ~symbols:call_symbols f in
      Alcotest.(check bool) (name ^ ": emitted") true (has_op prog op);
      let regs = Aeq_vm.Interp.scratch prog in
      check_words_per_row (name ^ " bytecode") ~expected (fun () ->
          Aeq_vm.Interp.run prog mem ~regs ~args ());
      let c =
        Aeq_backend.Compiler.compile_unopt_of_bytecode ~cost_model:CM.off ~mem
          ~n_instrs:(Func.n_instrs f) prog
      in
      let exec = c.Aeq_backend.Compiler.exec in
      let regs = Aeq_backend.Closure_compile.scratch exec in
      check_words_per_row (name ^ " unopt closures") ~expected (fun () ->
          Aeq_backend.Closure_compile.run exec ~regs ~args ()))
    kernels

(* ---- trap parity at width boundaries ----------------------------- *)

(* [f a b = body (narrow a) (narrow b)], an i64 *)
let two_operand name ty body =
  let b = Builder.create ~name ~params:[ Types.I64; Types.I64 ] in
  let x = narrow b ty (Builder.param b 0) and y = narrow b ty (Builder.param b 1) in
  Builder.ret b (body b x y);
  let f = Builder.finish b in
  Layout.normalize f;
  Verify.run f;
  f

let flag_fn op ty =
  swap_in_flags op ty
    (two_operand "flag" ty (fun b x y -> zext1 b (Builder.icmp b Instr.Eq ty x y)))

(* What each tier makes of [f args]: the direct IR evaluator, the
   interpreter, and the closure tier unoptimized and optimized. *)
let tier_outcomes f args =
  let mem = A.create () in
  let prog = Aeq_vm.Translate.translate ~symbols:no_symbols f in
  let closures (c : Aeq_backend.Compiler.compiled) () =
    Aeq_backend.Closure_compile.run c.Aeq_backend.Compiler.exec ~args ()
  in
  [
    ("ir", outcome (fun () -> Aeq_vm.Ir_interp.run f mem ~symbols:no_symbols ~args));
    ("bytecode", outcome (fun () -> Aeq_vm.Interp.run prog mem ~args ()));
    ( "unopt",
      outcome
        (closures
           (Aeq_backend.Compiler.compile_unopt_of_bytecode ~cost_model:CM.off ~mem
              ~n_instrs:(Func.n_instrs f) prog)) );
    ( "opt",
      outcome
        (closures
           (Aeq_backend.Compiler.compile ~cost_model:CM.off ~symbols:no_symbols ~mem ~mode:CM.Opt f))
    );
  ]

(* Overflow and division traps, and the wrap of unchecked narrow
   arithmetic, agree between every tier and [Semantics] at the edges
   of each width: the tiers' inlined primitives compute what
   [Semantics] computes. *)
let test_trap_parity () =
  let i32_max = 0x7FFF_FFFFL and i32_min = -0x8000_0000L in
  let overflow = Error "integer overflow" and div0 = Error "division by zero" in
  let checked op ty =
    two_operand "checked" ty (fun b x y -> widen b ty (Builder.checked b op ty x y))
  in
  let binop op ty = two_operand "binop" ty (fun b x y -> widen b ty (Builder.binop b op ty x y)) in
  List.iter
    (fun (name, f, a, b, expected) ->
      List.iter
        (fun (tier, got) ->
          Alcotest.(check (result int64 string))
            (Printf.sprintf "%s (%Ld, %Ld) in %s" name a b tier)
            expected got)
        (tier_outcomes f [| a; b |]))
    [
      ("mul_chk_i64", checked Instr.OMul Types.I64, Int64.min_int, -1L, overflow);
      ("mul_chk_i64", checked Instr.OMul Types.I64, -1L, Int64.min_int, overflow);
      ("mul_chk_i64", checked Instr.OMul Types.I64, 0x1_0000_0000L, 0x8000_0000L, overflow);
      ("mul_chk_i64", checked Instr.OMul Types.I64, 0x8000_0000L, 0x8000_0000L, Ok 0x4000_0000_0000_0000L);
      ("mul_chk_i64", checked Instr.OMul Types.I64, Int64.min_int, 1L, Ok Int64.min_int);
      ("add_chk_i64", checked Instr.OAdd Types.I64, Int64.max_int, 1L, overflow);
      ("add_chk_i64", checked Instr.OAdd Types.I64, Int64.min_int, -1L, overflow);
      ("add_chk_i64", checked Instr.OAdd Types.I64, Int64.max_int, Int64.min_int, Ok (-1L));
      ("sub_chk_i64", checked Instr.OSub Types.I64, Int64.min_int, 1L, overflow);
      ("sub_chk_i64", checked Instr.OSub Types.I64, 0L, Int64.min_int, overflow);
      ("sub_chk_i64", checked Instr.OSub Types.I64, -1L, Int64.min_int, Ok Int64.max_int);
      ("add_chk_i32", checked Instr.OAdd Types.I32, i32_max, 1L, overflow);
      ("add_chk_i32", checked Instr.OAdd Types.I32, i32_max, 0L, Ok i32_max);
      ("sub_chk_i32", checked Instr.OSub Types.I32, i32_min, 1L, overflow);
      ("mul_chk_i32", checked Instr.OMul Types.I32, i32_min, -1L, overflow);
      ("mul_chk_i32", checked Instr.OMul Types.I32, 65536L, 32768L, overflow);
      ("mul_chk_i32", checked Instr.OMul Types.I32, 65536L, 32767L, Ok 2147418112L);
      ("ovf_mul_i64", flag_fn Instr.OMul Types.I64, Int64.min_int, -1L, Ok 1L);
      ("ovf_mul_i64", flag_fn Instr.OMul Types.I64, Int64.min_int, 1L, Ok 0L);
      ("ovf_add_i64", flag_fn Instr.OAdd Types.I64, Int64.max_int, 1L, Ok 1L);
      ("ovf_sub_i64", flag_fn Instr.OSub Types.I64, Int64.min_int, 1L, Ok 1L);
      ("ovf_add_i32", flag_fn Instr.OAdd Types.I32, i32_max, 1L, Ok 1L);
      ("ovf_sub_i32", flag_fn Instr.OSub Types.I32, i32_min, 0L, Ok 0L);
      ("ovf_mul_i32", flag_fn Instr.OMul Types.I32, i32_min, -1L, Ok 1L);
      ("add_i32", binop Instr.Add Types.I32, i32_max, 1L, Ok i32_min);
      ("sub_i32", binop Instr.Sub Types.I32, i32_min, 1L, Ok i32_max);
      ("mul_i32", binop Instr.Mul Types.I32, 65536L, 65536L, Ok 0L);
      ("add_i8", binop Instr.Add Types.I8, 127L, 1L, Ok (-128L));
      ("mul_i16", binop Instr.Mul Types.I16, 256L, 128L, Ok (-32768L));
      ("shl_i32", binop Instr.Shl Types.I32, 1L, 31L, Ok i32_min);
      ("lshr_i8", binop Instr.LShr Types.I8, -1L, 1L, Ok 127L);
      ("div_i64", binop Instr.Div Types.I64, Int64.min_int, -1L, Ok Int64.min_int);
      ("rem_i64", binop Instr.Rem Types.I64, Int64.min_int, -1L, Ok 0L);
      ("div_i32", binop Instr.Div Types.I32, i32_min, -1L, Ok i32_min);
      ("div_i8", binop Instr.Div Types.I8, -128L, -1L, Ok (-128L));
      ("div_i64", binop Instr.Div Types.I64, 7L, 0L, div0);
      ("rem_i32", binop Instr.Rem Types.I32, 7L, 0L, div0);
      ("rem_i8", binop Instr.Rem Types.I8, -7L, 0L, div0);
    ]

let () =
  Alcotest.run "backend"
    [
      ( "closure",
        [
          Alcotest.test_case "unopt runs" `Quick test_unopt_runs_simple;
          Alcotest.test_case "opt shrinks IR" `Quick test_opt_shrinks_ir;
          Alcotest.test_case "4-byte loads allocate nothing" `Quick
            test_load32_allocation_free;
          Alcotest.test_case "indexed memory ops allocate nothing" `Quick
            test_indexed_ops_allocation_free;
          Alcotest.test_case "arithmetic, compare and call ops allocate nothing" `Quick
            test_arith_call_ops_allocation_free;
          Alcotest.test_case "trap parity at width boundaries" `Quick test_trap_parity;
        ] );
      ( "cost model",
        [
          Alcotest.test_case "shape" `Quick test_cost_model_shape;
          Alcotest.test_case "simulated latency" `Quick test_simulated_latency_enforced;
          Alcotest.test_case "calibration" `Quick test_calibration_reports_estimate;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_all_modes_agree ]);
    ]
