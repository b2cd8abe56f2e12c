(* Tests for the closure backend and compile drivers: equivalence with
   the bytecode interpreter across modes, cost-model shape, and
   calibration sanity. *)

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

let test_calibration_sane () =
  let module C = Aeq_backend.Calibration in
  let cal = C.measure () in
  Alcotest.(check bool) "cached: one measurement per process" true (C.measure () == cal);
  let sane name ~floor v =
    Alcotest.(check bool)
      (Printf.sprintf "%s = %g is finite, at least its floor %g, below 50" name v floor)
      true
      (Float.is_finite v && v >= floor && v < 50.0)
  in
  sane "speedup_unopt" ~floor:1.01 cal.C.speedup_unopt;
  sane "speedup_opt" ~floor:1.02 cal.C.speedup_opt

(* sum of sext(load i32 col[i]) over [0, n): the gep/load/sext triple
   translates to one LoadIdx32 *)
let load32_kernel () =
  let b = Builder.create ~name:"load32" ~params:[ Types.Ptr; Types.I64 ] in
  let head = Builder.new_block b in
  let body = Builder.new_block b in
  let exit = Builder.new_block b in
  Builder.br b head;
  Builder.switch_to b head;
  let i = Builder.phi b Types.I64 [ (0, Instr.Imm 0L) ] in
  let acc = Builder.phi b Types.I64 [ (0, Instr.Imm 0L) ] in
  let c = Builder.icmp b Instr.Slt Types.I64 i (Builder.param b 1) in
  Builder.condbr b c ~if_true:body ~if_false:exit;
  Builder.switch_to b body;
  let addr = Builder.gep b ~base:(Builder.param b 0) ~index:i ~scale:4 ~offset:0 in
  let v = Builder.load b Types.I32 addr in
  let w = Builder.cast b Instr.Sext ~from_ty:Types.I32 ~to_ty:Types.I64 v in
  let acc' = Builder.binop b Instr.Add Types.I64 acc w in
  let i' = Builder.binop b Instr.Add Types.I64 i (Instr.Imm 1L) in
  Builder.br b head;
  Builder.add_phi_incoming b ~block:head ~dst:i ~pred:body i';
  Builder.add_phi_incoming b ~block:head ~dst:acc ~pred:body acc';
  Builder.switch_to b exit;
  Builder.ret b acc;
  let f = Builder.finish b in
  Layout.normalize f;
  f

(* A 4-byte load reaches the register file as an unboxed int: the
   LoadIdx32 kernel allocates nothing per row in the interpreter or in
   the closure tier (a boxed int32 costs about 3 words per load). *)
let test_load32_allocation_free () =
  let rows = 20_000 in
  let mem = A.create ~chunk_size:(4 * rows) () in
  let col = A.alloc (A.allocator mem) (4 * rows) in
  for i = 0 to rows - 1 do
    A.set_i32 mem (col + (4 * i)) (Int32.of_int (i - 15_000))
  done;
  let expected = Int64.of_int (((rows - 1) * rows / 2) - (15_000 * rows)) in
  let f = load32_kernel () in
  let prog = Aeq_vm.Translate.translate ~symbols:no_symbols f in
  Alcotest.(check bool) "the kernel loads through LoadIdx32" true
    (Array.exists
       (fun i -> i.Aeq_vm.Bytecode.op = Aeq_vm.Opcode.LoadIdx32)
       prog.Aeq_vm.Bytecode.code);
  let args = [| Int64.of_int col; Int64.of_int rows |] in
  let words_per_row name run =
    Alcotest.(check int64) (name ^ ": sum of the sign-extended cells") expected (run ());
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (run ()));
    let words = (Gc.minor_words () -. w0) /. float_of_int rows in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.3f minor words per row (< 0.05)" name words)
      true (words < 0.05)
  in
  let regs = Aeq_vm.Interp.scratch prog in
  words_per_row "bytecode" (fun () -> Aeq_vm.Interp.run prog mem ~regs ~args ());
  let c =
    Aeq_backend.Compiler.compile_unopt_of_bytecode ~cost_model:CM.off ~mem
      ~n_instrs:(Func.n_instrs f) prog
  in
  let exec = c.Aeq_backend.Compiler.exec in
  let regs = Aeq_backend.Closure_compile.scratch exec in
  words_per_row "unopt closures" (fun () ->
      Aeq_backend.Closure_compile.run exec ~regs ~args ())

let () =
  Alcotest.run "backend"
    [
      ( "closure",
        [
          Alcotest.test_case "unopt runs" `Quick test_unopt_runs_simple;
          Alcotest.test_case "opt shrinks IR" `Quick test_opt_shrinks_ir;
          Alcotest.test_case "4-byte loads allocate nothing" `Quick
            test_load32_allocation_free;
        ] );
      ( "cost model",
        [
          Alcotest.test_case "shape" `Quick test_cost_model_shape;
          Alcotest.test_case "simulated latency" `Quick test_simulated_latency_enforced;
          Alcotest.test_case "calibration" `Quick test_calibration_sane;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_all_modes_agree ]);
    ]
