(* Tests for the bytecode VM: translation, interpretation, register
   allocation, macro-op fusion — differentially against the direct IR
   evaluator, across all allocation strategies. *)

module A = Aeq_mem.Arena

let no_symbols : Aeq_vm.Rt_fn.resolver = fun _ -> None

let ops (prog : Aeq_vm.Bytecode.t) =
  Array.init (Array.length prog.code) (fun pc -> (Aeq_vm.Bytecode.get prog pc).op)

let run_vm ?strategy ?fuse f mem args =
  let prog = Aeq_vm.Translate.translate ?strategy ?fuse ~symbols:no_symbols f in
  Aeq_vm.Interp.run prog mem ~args ()

(* --- hand-written programs ----------------------------------------- *)

let build_add_checked () =
  let b = Builder.create ~name:"addchk" ~params:[ Types.I64; Types.I64 ] in
  let r = Builder.checked b Instr.OAdd Types.I64 (Builder.param b 0) (Builder.param b 1) in
  Builder.ret b r;
  let f = Builder.finish b in
  Layout.normalize f;
  Verify.run f;
  f

let build_sum_loop () =
  let b = Builder.create ~name:"sum" ~params:[ Types.I64 ] in
  let head = Builder.new_block b in
  let body = Builder.new_block b in
  let exit = Builder.new_block b in
  Builder.br b head;
  Builder.switch_to b head;
  let i = Builder.phi b Types.I64 [ (0, Instr.Imm 0L) ] in
  let acc = Builder.phi b Types.I64 [ (0, Instr.Imm 0L) ] in
  let c = Builder.icmp b Instr.Slt Types.I64 i (Builder.param b 0) in
  Builder.condbr b c ~if_true:body ~if_false:exit;
  Builder.switch_to b body;
  let acc' = Builder.binop b Instr.Add Types.I64 acc i in
  let i' = Builder.binop b Instr.Add Types.I64 i (Instr.Imm 1L) in
  Builder.br b head;
  Builder.add_phi_incoming b ~block:head ~dst:i ~pred:body i';
  Builder.add_phi_incoming b ~block:head ~dst:acc ~pred:body acc';
  Builder.switch_to b exit;
  Builder.ret b acc;
  let f = Builder.finish b in
  Layout.normalize f;
  Verify.run f;
  f

(* Sums an i64 column through fused gep+load. *)
let build_column_sum () =
  let b = Builder.create ~name:"colsum" ~params:[ Types.Ptr; Types.I64 ] in
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
  let addr = Builder.gep b ~base:(Builder.param b 0) ~index:i ~scale:8 ~offset:0 in
  let v = Builder.load b Types.I64 addr in
  let acc' = Builder.binop b Instr.Add Types.I64 acc v in
  let i' = Builder.binop b Instr.Add Types.I64 i (Instr.Imm 1L) in
  Builder.br b head;
  Builder.add_phi_incoming b ~block:head ~dst:i ~pred:body i';
  Builder.add_phi_incoming b ~block:head ~dst:acc ~pred:body acc';
  Builder.switch_to b exit;
  Builder.ret b acc;
  let f = Builder.finish b in
  Layout.normalize f;
  Verify.run f;
  f

(* --- unit tests ----------------------------------------------------- *)

let test_checked_add_ok () =
  let mem = A.create () in
  let r = run_vm (build_add_checked ()) mem [| 20L; 22L |] in
  Alcotest.(check int64) "20+22" 42L r

let test_checked_add_overflow () =
  let mem = A.create () in
  Alcotest.check_raises "overflow traps" (Trap.Error "integer overflow") (fun () ->
      ignore (run_vm (build_add_checked ()) mem [| Int64.max_int; 1L |]))

let test_checked_fusion_applied () =
  let prog = Aeq_vm.Translate.translate ~symbols:no_symbols (build_add_checked ()) in
  let has_chk =
    Array.exists (( = ) Aeq_vm.Opcode.AddChk_i64) (ops prog)
  in
  Alcotest.(check bool) "AddChk_i64 emitted" true has_chk

let test_sum_loop () =
  let mem = A.create () in
  Alcotest.(check int64) "sum 0..9" 45L (run_vm (build_sum_loop ()) mem [| 10L |]);
  Alcotest.(check int64) "sum empty" 0L (run_vm (build_sum_loop ()) mem [| 0L |]);
  Alcotest.(check int64) "sum 0..999" 499500L (run_vm (build_sum_loop ()) mem [| 1000L |])

let test_cmp_branch_fusion_applied () =
  let prog = Aeq_vm.Translate.translate ~symbols:no_symbols (build_sum_loop ()) in
  let has_fused =
    Array.exists (( = ) Aeq_vm.Opcode.JmpSlt) (ops prog)
  in
  Alcotest.(check bool) "JmpSlt emitted" true has_fused

let test_column_sum_and_loadidx_fusion () =
  let mem = A.create () in
  let alloc = A.allocator mem in
  let n = 100 in
  let col = A.alloc alloc (8 * n) in
  for i = 0 to n - 1 do
    A.set_i64 mem (col + (8 * i)) (Int64.of_int (i * i))
  done;
  let f = build_column_sum () in
  let expected = ref 0L in
  for i = 0 to n - 1 do
    expected := Int64.add !expected (Int64.of_int (i * i))
  done;
  Alcotest.(check int64) "column sum" !expected
    (run_vm f mem [| Int64.of_int col; Int64.of_int n |]);
  let prog = Aeq_vm.Translate.translate ~symbols:no_symbols f in
  let has_loadidx =
    Array.exists (( = ) Aeq_vm.Opcode.LoadIdx64) (ops prog)
  in
  Alcotest.(check bool) "LoadIdx64 emitted" true has_loadidx

(* Returns the [ty] cell at an index, sign-extended: the shape
   codegen emits for a table column of that width. *)
let build_cell_load ty =
  let b = Builder.create ~name:"cell" ~params:[ Types.Ptr; Types.I64 ] in
  let addr =
    Builder.gep b ~base:(Builder.param b 0) ~index:(Builder.param b 1)
      ~scale:(Types.size_of ty) ~offset:0
  in
  let cell = Builder.load b ty addr in
  Builder.ret b (Builder.cast b Instr.Sext ~from_ty:ty ~to_ty:Types.I64 cell);
  let f = Builder.finish b in
  Layout.normalize f;
  Verify.run f;
  f

(* At each cell width, gep; load; sext is one sign-extending indexed
   load, and the IR evaluator, the VM and the closure compiler read
   the extremes and a few values between alike, fused or not. *)
let test_cell_load_fusion () =
  List.iter
    (fun (ty, op, cells) ->
      let mem = A.create () in
      let w = Types.size_of ty in
      let col = A.alloc (A.allocator mem) (w * Array.length cells) in
      Array.iteri
        (fun i v ->
          let p = col + (w * i) in
          match w with
          | 1 -> A.set_i8 mem p v
          | 2 -> A.set_i16 mem p v
          | _ -> A.set_i32 mem p (Int32.of_int v))
        cells;
      let f = build_cell_load ty in
      let closures fuse =
        Aeq_backend.Closure_compile.compile
          (Aeq_vm.Translate.translate ~fuse ~symbols:no_symbols f)
          mem
      in
      let fused = closures true and unfused = closures false in
      Array.iteri
        (fun i v ->
          let args = [| Int64.of_int col; Int64.of_int i |] in
          let ir = Aeq_vm.Ir_interp.run f mem ~symbols:no_symbols ~args in
          Alcotest.(check int64) (op ^ ": IR sign-extends") (Int64.of_int v) ir;
          Alcotest.(check int64) (op ^ ": fused = IR") ir (run_vm f mem args);
          Alcotest.(check int64) (op ^ ": unfused = IR") ir (run_vm ~fuse:false f mem args);
          Alcotest.(check int64) (op ^ ": fused closures = IR") ir
            (Aeq_backend.Closure_compile.run fused ~args ());
          Alcotest.(check int64) (op ^ ": unfused closures = IR") ir
            (Aeq_backend.Closure_compile.run unfused ~args ()))
        cells;
      let prog = Aeq_vm.Translate.translate ~symbols:no_symbols f in
      let ops =
Array.map Aeq_vm.Opcode.to_string (ops prog)
      in
      Alcotest.(check (list string))
        (Printf.sprintf "gep; load %s; sext is one %s" (Types.to_string ty) op)
        [ op; "ret" ] (Array.to_list ops))
    [
      (Types.I8, "load_idx_i8", [| 0x7f; -0x80; -1; 1; 0; 100; -57 |]);
      (Types.I16, "load_idx_i16", [| 0x7fff; -0x8000; -1; 1; 0; 9_182; -12_345 |]);
      ( Types.I32,
        "load_idx_i32",
        [| 0x7fff_ffff; -0x8000_0000; -1; 1; 0; 123_456; -98_765 |] );
    ]

(* The 22 TPC-H queries' worker IR, bytecode and register files: the
   cell widths change only which indexed load each column read is, so
   the totals are the same at sf 0.01, where l_orderkey is 2 bytes, and
   at sf 0.03, where it is 4. *)
let test_tpch_bytecode_totals () =
  List.iter
    (fun sf ->
      let catalog = Aeq_storage.Catalog.create () in
      Aeq_workload.Tpch.load ~scale_factor:sf catalog;
      let symbols =
        Aeq_rt.Symbols.resolver
          (Aeq_rt.Context.create ~arena:(Aeq_storage.Catalog.arena catalog)
             ~dict:(Aeq_storage.Catalog.dict catalog) ~n_threads:1 ())
      in
      let instrs = ref 0 and ops = ref 0 and reg_bytes = ref 0 in
      List.iter
        (fun (_, sql) ->
          let plan = Aeq_plan.Planner.plan_sql catalog sql in
          List.iter
            (fun f ->
              instrs := !instrs + Func.n_instrs f;
              let prog = Aeq_vm.Translate.translate ~symbols f in
              ops := !ops + Array.length prog.Aeq_vm.Bytecode.code;
              reg_bytes := !reg_bytes + prog.Aeq_vm.Bytecode.n_reg_bytes)
            (Aeq_codegen.Codegen.all_workers plan (Aeq_plan.Physical.layout plan)))
        Aeq_workload.Queries.tpch;
      let what = Printf.sprintf "sf %g: " sf in
      Alcotest.(check int) (what ^ "IR instructions") 3013 !instrs;
      Alcotest.(check int) (what ^ "bytecode ops") 2130 !ops;
      Alcotest.(check int) (what ^ "register-file bytes") 10808 !reg_bytes)
    [ 0.01; 0.03 ]

let test_runtime_call () =
  (* A generated function calling back into a "C++" helper. *)
  let b = Builder.create ~name:"callrt" ~params:[ Types.I64 ] in
  let r =
    Builder.call b Types.I64 "triple" [ (Builder.param b 0, Types.I64) ]
  in
  let r2 = Builder.binop b Instr.Add Types.I64 r (Instr.Imm 1L) in
  Builder.call_void b "observe" [ (r2, Types.I64) ];
  Builder.ret b r2;
  let f = Builder.finish b in
  Layout.normalize f;
  Verify.run f;
  let observed = ref 0L in
  let symbols = function
    | "triple" -> Some (Aeq_vm.Rt_fn.F1 (fun regs x -> 3 * Int64.to_int (Aeq_vm.Rt_fn.get regs x)))
    | "observe" ->
      Some
        (Aeq_vm.Rt_fn.F1
           (fun regs x ->
             observed := Aeq_vm.Rt_fn.get regs x;
             0))
    | _ -> None
  in
  let mem = A.create () in
  let prog = Aeq_vm.Translate.translate ~symbols f in
  let r = Aeq_vm.Interp.run prog mem ~args:[| 7L |] () in
  Alcotest.(check int64) "3*7+1" 22L r;
  Alcotest.(check int64) "side effect seen" 22L !observed

let test_division_by_zero_traps () =
  let b = Builder.create ~name:"div" ~params:[ Types.I64; Types.I64 ] in
  let r = Builder.binop b Instr.Div Types.I64 (Builder.param b 0) (Builder.param b 1) in
  Builder.ret b r;
  let f = Builder.finish b in
  Layout.normalize f;
  let mem = A.create () in
  Alcotest.(check int64) "7/2" 3L (run_vm f mem [| 7L; 2L |]);
  Alcotest.check_raises "div by zero" (Trap.Error "division by zero") (fun () ->
      ignore (run_vm f mem [| 7L; 0L |]))

let test_disasm_smoke () =
  let prog = Aeq_vm.Translate.translate ~symbols:no_symbols (build_sum_loop ()) in
  let text = Aeq_vm.Disasm.program prog in
  Alcotest.(check bool) "has content" true (String.length text > 50)

(* --- register allocation ------------------------------------------- *)

let regfile_size strategy f =
  let prog = Aeq_vm.Translate.translate ~strategy ~symbols:no_symbols f in
  prog.Aeq_vm.Bytecode.n_reg_bytes

let test_regalloc_ordering () =
  (* loop-aware <= window <= no-reuse on a corpus of random programs *)
  for seed = 0 to 30 do
    let f = Gen_ir.generate ~complexity:20 seed in
    let la = regfile_size Aeq_vm.Regalloc.Loop_aware f in
    let w = regfile_size (Aeq_vm.Regalloc.Window 4) f in
    let nr = regfile_size Aeq_vm.Regalloc.No_reuse f in
    if not (la <= w && w <= nr) then
      Alcotest.failf "seed %d: loop-aware %d, window %d, no-reuse %d" seed la w nr
  done

let test_liveness_covers_uses () =
  (* Every use of a value must fall inside its computed block interval. *)
  for seed = 0 to 30 do
    let f = Gen_ir.generate ~complexity:15 seed in
    let dom = Dom.compute f in
    let loops = Loops.compute f dom in
    let iv = Aeq_vm.Regalloc.block_intervals f loops in
    let check_value blk = function
      | Instr.Vreg v ->
        let lo, hi = iv.(v) in
        if not (lo <= blk && blk <= hi) then
          Alcotest.failf "seed %d: value %%%d used in block %d outside [%d,%d]" seed v blk
            lo hi
      | Instr.Imm _ | Instr.Fimm _ -> ()
    in
    Array.iter
      (fun (b : Block.t) ->
        Array.iter
          (fun (p : Instr.phi) ->
            Array.iter (fun (pred, v) -> check_value pred v) p.Instr.incoming)
          b.Block.phis;
        Array.iter
          (fun i -> List.iter (check_value b.Block.id) (Instr.operands i))
          b.Block.instrs;
        match b.Block.term with
        | Instr.CondBr { cond; _ } -> check_value b.Block.id cond
        | Instr.Ret (Some v) -> check_value b.Block.id v
        | _ -> ())
      f.Func.blocks
  done

let test_loop_extension_fig10 () =
  (* The Fig. 10 scenario: a value defined before a loop and used
     inside it must live until the loop's last block. *)
  let b = Builder.create ~name:"fig10" ~params:[ Types.I64 ] in
  let v = Builder.binop b Instr.Add Types.I64 (Builder.param b 0) (Instr.Imm 7L) in
  let head = Builder.new_block b in
  let body = Builder.new_block b in
  let latch = Builder.new_block b in
  let exit = Builder.new_block b in
  Builder.br b head;
  Builder.switch_to b head;
  let i = Builder.phi b Types.I64 [ (0, Instr.Imm 0L) ] in
  let acc = Builder.phi b Types.I64 [ (0, Instr.Imm 0L) ] in
  let c = Builder.icmp b Instr.Slt Types.I64 i (Instr.Imm 10L) in
  Builder.condbr b c ~if_true:body ~if_false:exit;
  Builder.switch_to b body;
  (* v used here, one loop level deeper than its definition *)
  let u = Builder.binop b Instr.Add Types.I64 v i in
  Builder.br b latch;
  Builder.switch_to b latch;
  let acc' = Builder.binop b Instr.Add Types.I64 acc u in
  let i' = Builder.binop b Instr.Add Types.I64 i (Instr.Imm 1L) in
  Builder.br b head;
  Builder.add_phi_incoming b ~block:head ~dst:i ~pred:latch i';
  Builder.add_phi_incoming b ~block:head ~dst:acc ~pred:latch acc';
  Builder.switch_to b exit;
  Builder.ret b acc;
  let f = Builder.finish b in
  Layout.normalize f;
  Verify.run f;
  let dom = Dom.compute f in
  let loops = Loops.compute f dom in
  let iv = Aeq_vm.Regalloc.block_intervals f loops in
  let v_id = match v with Instr.Vreg id -> id | _ -> assert false in
  let _, hi = iv.(v_id) in
  (* the latch is the last loop block; v must live through it *)
  let latch_id =
    (* find the block whose successor list contains a smaller id (back edge source) *)
    Array.to_list f.Func.blocks
    |> List.find (fun (blk : Block.t) ->
           List.exists (fun s -> s <= blk.Block.id) (Block.successors blk))
  in
  Alcotest.(check bool) "lifetime extended to loop end" true (hi >= latch_id.Block.id)

(* --- arithmetic semantics boundaries --------------------------------- *)

let test_overflow_boundaries () =
  let module S = Semantics in
  (* add: max+1 overflows, max+0 does not; min-1 overflows *)
  Alcotest.(check bool) "max+1" true (S.add_ovf ~width:64 Int64.max_int 1L);
  Alcotest.(check bool) "max+0" false (S.add_ovf ~width:64 Int64.max_int 0L);
  Alcotest.(check bool) "min+(-1)" true (S.add_ovf ~width:64 Int64.min_int (-1L));
  Alcotest.(check bool) "min+max" false (S.add_ovf ~width:64 Int64.min_int Int64.max_int);
  Alcotest.(check bool) "sub min-1" true (S.sub_ovf ~width:64 Int64.min_int 1L);
  Alcotest.(check bool) "sub max-(-1)" true (S.sub_ovf ~width:64 Int64.max_int (-1L));
  Alcotest.(check bool) "sub max-0" false (S.sub_ovf ~width:64 Int64.max_int 0L);
  (* mul: the classic min * -1 case *)
  Alcotest.(check bool) "min*-1" true (S.mul_ovf ~width:64 Int64.min_int (-1L));
  Alcotest.(check bool) "-1*min" true (S.mul_ovf ~width:64 (-1L) Int64.min_int);
  Alcotest.(check bool) "2^31*2^31" true
    (S.mul_ovf ~width:64 0x100000000L 0x100000000L);
  Alcotest.(check bool) "2^31*2^31 fits 64? no" true
    (S.mul_ovf ~width:64 4294967296L 4294967296L);
  Alcotest.(check bool) "3*5" false (S.mul_ovf ~width:64 3L 5L);
  (* 32-bit widths *)
  Alcotest.(check bool) "i32 max+1" true (S.add_ovf ~width:32 2147483647L 1L);
  Alcotest.(check bool) "i32 max+0" false (S.add_ovf ~width:32 2147483647L 0L);
  Alcotest.(check bool) "i32 mul" true (S.mul_ovf ~width:32 65536L 65536L)

let test_narrow_canonical_forms () =
  let module S = Semantics in
  (* canonical i8 values are sign-extended *)
  Alcotest.(check int64) "127+1 wraps to -128" (-128L) (S.add ~width:8 127L 1L);
  Alcotest.(check int64) "i16 wrap" (-32768L) (S.add ~width:16 32767L 1L);
  Alcotest.(check int64) "i32 wrap" (-2147483648L) (S.add ~width:32 2147483647L 1L);
  (* lshr operates on the masked width *)
  Alcotest.(check int64) "lshr i8 of -1" 127L (S.lshr ~width:8 (-1L) 1L);
  Alcotest.(check int64) "lshr i64 of -1" Int64.max_int (S.lshr ~width:64 (-1L) 1L);
  (* unsigned compares at narrow widths *)
  Alcotest.(check bool) "-1 >u 1 at i8" true (S.ucmp ~width:8 (-1L) 1L > 0);
  Alcotest.(check bool) "-1 >u 1 at i64" true (S.ucmp ~width:64 (-1L) 1L > 0)

let test_division_semantics () =
  let module S = Semantics in
  (* OCaml/C truncating division semantics *)
  Alcotest.(check int64) "-7/2" (-3L) (S.div ~width:64 (-7L) 2L);
  Alcotest.(check int64) "-7 rem 2" (-1L) (S.rem ~width:64 (-7L) 2L);
  Alcotest.(check int64) "7/-2" (-3L) (S.div ~width:64 7L (-2L));
  Alcotest.check_raises "div by zero" (Trap.Error "division by zero") (fun () ->
      ignore (S.div ~width:64 1L 0L))

(* For widths below 64 the overflow predicates can be checked against
   exact integer arithmetic (the values fit in OCaml's int). *)
let exact_range width =
  let bound = 1 lsl (width - 1) in
  (-bound, bound - 1)

let prop_ovf_exact_narrow =
  QCheck.Test.make ~name:"overflow flags exact at i8/i16/i32" ~count:2000
    QCheck.(triple (int_bound 2) int int)
    (fun (wsel, a, b) ->
      let width = [| 8; 16; 32 |].(wsel) in
      let lo, hi = exact_range width in
      let a = (a mod (hi - lo + 1)) + lo and b = (b mod (hi - lo + 1)) + lo in
      let a = if a < lo then a + (hi - lo + 1) else a in
      let b = if b < lo then b + (hi - lo + 1) else b in
      let ia = Int64.of_int a and ib = Int64.of_int b in
      let outside v = v < lo || v > hi in
      Semantics.add_ovf ~width ia ib = outside (a + b)
      && Semantics.sub_ovf ~width ia ib = outside (a - b)
      && Semantics.mul_ovf ~width ia ib = outside (a * b))

let prop_exhaustive_i8 =
  QCheck.Test.make ~name:"i8 arithmetic exhaustive vs reference" ~count:1
    QCheck.unit
    (fun () ->
      let ok = ref true in
      for a = -128 to 127 do
        for b = -128 to 127 do
          let ia = Int64.of_int a and ib = Int64.of_int b in
          let wrap v = ((v + 128) land 255) - 128 in
          if Semantics.add ~width:8 ia ib <> Int64.of_int (wrap (a + b)) then ok := false;
          if Semantics.sub ~width:8 ia ib <> Int64.of_int (wrap (a - b)) then ok := false;
          if Semantics.mul ~width:8 ia ib <> Int64.of_int (wrap (a * b)) then ok := false;
          let ucmp_ref = compare (a land 255) (b land 255) in
          let ucmp_got = Semantics.ucmp ~width:8 ia ib in
          if compare ucmp_got 0 <> compare ucmp_ref 0 then ok := false
        done
      done;
      !ok)

(* --- packed encoding --------------------------------------------------- *)

module BC = Aeq_vm.Bytecode

let one_slot () =
  {
    BC.name = "slot";
    code = [| 0 |];
    ext = [| 0 |];
    lits = [| 0 |];
    n_reg_bytes = 16;
    const_pool = [| 0L; 1L |];
    param_offsets = [||];
    rt_table = [||];
    messages = [||];
    src_instr_count = 0;
  }

(* a field value: the bounds of its range, or anything within it *)
let field_gen bits =
  let max = (1 lsl bits) - 1 in
  QCheck.Gen.(oneof [ return 0; return max; int_range 0 max ])

let insn_gen =
  QCheck.Gen.(
    let* op = int_range 0 (Aeq_vm.Opcode.count - 1) in
    let* a = field_gen BC.ab_bits and* b = field_gen BC.ab_bits in
    let* c = field_gen BC.cde_bits and* d = field_gen BC.cde_bits in
    let* e = field_gen BC.cde_bits in
    let* lit = oneof [ return min_int; return max_int; return 0; int ] in
    return { BC.op = Aeq_vm.Opcode.of_int op; a; b; c; d; e; lit })

let prop_encoding_roundtrip =
  QCheck.Test.make ~name:"encode then get returns every field" ~count:2000
    (QCheck.make ~print:Aeq_vm.Disasm.insn insn_gen) (fun i ->
      let p = one_slot () in
      BC.set p 0 i;
      BC.get p 0 = i)

(* GEP literals: scale and offset come back unchanged, and the packed
   int is the number the int64 packing gave, so disassembly is too *)
let prop_gep_literal_roundtrip =
  QCheck.Test.make ~name:"gep literal packs and unpacks" ~count:2000
    QCheck.(
      pair
        (oneof [ oneofl [ -0x8000_0000; 0x7fff_ffff; 0 ]; int_range (-0x8000_0000) 0x7fff_ffff ])
        (oneof [ oneofl [ -0x4000_0000; 0x3fff_ffff; 0 ]; int_range (-0x4000_0000) 0x3fff_ffff ]))
    (fun (scale, offset) ->
      let lit = BC.pack_scale_offset ~scale ~offset in
      BC.unpack_scale lit = scale
      && BC.unpack_offset lit = offset
      && Int64.of_int lit
         = Int64.logor
             (Int64.logand (Int64.of_int scale) 0xFFFFFFFFL)
             (Int64.shift_left (Int64.of_int offset) 32))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let raises_unsupported what ~naming f =
  match f () with
  | _ -> Alcotest.failf "%s: encoded" what
  | exception Aeq_vm.Translate.Unsupported msg ->
    if not (contains msg naming) then
      Alcotest.failf "%s: message %S does not name %S" what msg naming

let test_field_widths_checked () =
  let p = one_slot () in
  let ok = { BC.op = Aeq_vm.Opcode.Mov; a = 16; b = 8; c = 0; d = 0; e = 0; lit = 0 } in
  BC.set p 0 ok;
  let add = { ok with BC.op = Aeq_vm.Opcode.Add_i64 } in
  let jmp = { ok with BC.op = Aeq_vm.Opcode.JmpSlt } in
  raises_unsupported "register offset past 27 bits in a" ~naming:"field a" (fun () ->
      BC.set p 0 { add with a = 1 lsl BC.ab_bits });
  raises_unsupported "register offset past 21 bits in c" ~naming:"field c" (fun () ->
      BC.set p 0 { add with c = 1 lsl BC.cde_bits });
  raises_unsupported "negative register offset" ~naming:"field b" (fun () ->
      BC.set p 0 { add with b = -8 });
  raises_unsupported "branch target past 21 bits in d" ~naming:"field d" (fun () ->
      BC.set p 0 { jmp with d = 1 lsl BC.cde_bits });
  raises_unsupported "e" ~naming:"field e" (fun () ->
      BC.encode_ext ~c:0 ~d:0 ~e:(1 lsl BC.cde_bits));
  raises_unsupported "encode_code" ~naming:"field b" (fun () ->
      BC.encode_code Aeq_vm.Opcode.Jmp ~a:0 ~b:max_int);
  Alcotest.(check bool) "a failed set leaves the slot as it was" true (BC.get p 0 = ok);
  raises_unsupported "gep offset past 31 bits" ~naming:"offset" (fun () ->
      BC.pack_scale_offset ~scale:8 ~offset:(1 lsl 30));
  raises_unsupported "gep scale past 32 bits" ~naming:"scale" (fun () ->
      BC.pack_scale_offset ~scale:(1 lsl 31) ~offset:0);
  (* through the translator: an IR gep whose offset the literal cannot hold *)
  let b = Builder.create ~name:"far" ~params:[ Types.Ptr; Types.I64 ] in
  let addr =
    Builder.gep b ~base:(Builder.param b 0) ~index:(Builder.param b 1) ~scale:8
      ~offset:(1 lsl 40)
  in
  Builder.ret b (Builder.load b Types.I64 addr);
  let f = Builder.finish b in
  Layout.normalize f;
  raises_unsupported "translate" ~naming:"offset" (fun () ->
      Aeq_vm.Translate.translate ~symbols:no_symbols f)

(* The disassembly of every worker of the 22 TPC-H queries and of the
   50-, 200- and 800-aggregate Fig. 15 statements, at sf 0.001, pinned
   by digest: a change to how instructions are stored must leave every
   decoded opcode, field and literal as it was. A change to code
   generation, translation or fusion records the new digest. *)
let test_disasm_pinned () =
  let catalog = Aeq_storage.Catalog.create () in
  Aeq_workload.Tpch.load ~scale_factor:0.001 catalog;
  let symbols =
    Aeq_rt.Symbols.resolver
      (Aeq_rt.Context.create ~arena:(Aeq_storage.Catalog.arena catalog)
         ~dict:(Aeq_storage.Catalog.dict catalog) ~n_threads:1 ())
  in
  let buf = Buffer.create (1 lsl 20) in
  let n_workers = ref 0 in
  List.iter
    (fun sql ->
      let plan = Aeq_plan.Planner.plan_sql catalog sql in
      List.iter
        (fun f ->
          incr n_workers;
          Buffer.add_string buf
            (Aeq_vm.Disasm.program (Aeq_vm.Translate.translate ~symbols f)))
        (Aeq_codegen.Codegen.all_workers plan (Aeq_plan.Physical.layout plan)))
    (List.map snd Aeq_workload.Queries.tpch
    @ List.map Aeq_workload.Queries.large_query [ 50; 200; 800 ]);
  Alcotest.(check int) "workers" 95 !n_workers;
  Alcotest.(check string) "disassembly digest" "94a8da861ddf0457ebb36490b7ad6cc2"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Register operands are checked once, when a program is built: an
   offset outside the register file, or not on an 8-byte slot, is
   refused by [check_registers], which [Translate] runs on every
   program; fields that are jump targets or message indices are not
   register offsets. *)
let test_register_offsets_checked_at_build () =
  let insn op a b c = { BC.op; a; b; c; d = 0; e = 0; lit = 0 } in
  let program code =
    let p =
      {
        BC.name = "hand";
        code = Array.make (Array.length code) 0;
        ext = Array.make (Array.length code) 0;
        lits = Array.make (Array.length code) 0;
        n_reg_bytes = 24;
        const_pool = [| 0L; 1L |];
        param_offsets = [||];
        rt_table = [||];
        messages = [| "abort" |];
        src_instr_count = 0;
      }
    in
    Array.iteri (BC.set p) code;
    p
  in
  let refused what code =
    match BC.check_registers (program code) with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  let ret = insn Aeq_vm.Opcode.RetVal 16 0 0 in
  BC.check_registers (program [| insn Aeq_vm.Opcode.Mov 16 8 0; ret |]);
  refused "write past the file" [| insn Aeq_vm.Opcode.Mov 24 8 0; ret |];
  refused "unaligned read" [| insn Aeq_vm.Opcode.Mov 16 12 0; ret |];
  refused "third operand past the file" [| insn Aeq_vm.Opcode.Add_i64 16 8 4096; ret |];
  refused "returned register past the file" [| insn Aeq_vm.Opcode.RetVal 24 0 0 |];
  (* a jump target and an abort message index are not registers *)
  BC.check_registers
    (program [| insn Aeq_vm.Opcode.CondJmp 16 3 2; ret; insn Aeq_vm.Opcode.AbortOp 0 0 0; ret |]);
  (* the mask agrees with what the verifier reads as registers, for
     every opcode and field *)
  List.iter
    (fun op ->
      List.iteri
        (fun k field ->
          let fields = Array.make 5 16 in
          fields.(k) <- 4096;
          let i =
            {
              BC.op;
              a = fields.(0);
              b = fields.(1);
              c = fields.(2);
              d = fields.(3);
              e = fields.(4);
              lit = 0;
            }
          in
          let p = program [| i; insn Aeq_vm.Opcode.RetVoid 0 0 0 |] in
          let checked = match BC.check_registers p with () -> false | exception Invalid_argument _ -> true in
          let verified =
            contains
              (Aeq_vm.Bc_verify.report "hand" (Aeq_vm.Bc_verify.check_program p))
              (Printf.sprintf "register offset 4096")
          in
          if checked <> verified then
            Alcotest.failf "%s field %s: check_registers %b, Bc_verify %b"
              (Aeq_vm.Opcode.to_string op) field checked verified)
        [ "a"; "b"; "c"; "d"; "e" ])
    Aeq_vm.Opcode.all

(* [Interp.run] reads registers unchecked, so it refuses a register
   file shorter than the program's before it runs anything. *)
let test_short_register_file_refused () =
  let b = Builder.create ~name:"short" ~params:[ Types.I64 ] in
  Builder.ret b (Builder.binop b Instr.Add Types.I64 (Builder.param b 0) (Instr.Imm 1L));
  let f = Builder.finish b in
  Layout.normalize f;
  let prog = Aeq_vm.Translate.translate ~symbols:no_symbols f in
  let mem = A.create () in
  Alcotest.(check int64) "a full file runs" 42L
    (Aeq_vm.Interp.run prog mem ~regs:(Aeq_vm.Interp.scratch prog) ~args:[| 41L |] ());
  match
    Aeq_vm.Interp.run prog mem ~regs:(Bytes.make (prog.BC.n_reg_bytes - 8) '\000') ~args:[| 41L |] ()
  with
  | _ -> Alcotest.fail "a short register file ran"
  | exception Invalid_argument _ -> ()

(* --- differential properties ---------------------------------------- *)

let run_ir f mem args = Aeq_vm.Ir_interp.run f mem ~symbols:no_symbols ~args

let outcome run =
  match run () with
  | v -> Ok v
  | exception Trap.Error m -> Error m

let mem_with_scratch () =
  let mem = A.create () in
  let alloc = A.allocator mem in
  let scratch = A.alloc alloc (8 * Gen_ir.n_mem_words) in
  (mem, scratch)

let mem_words mem scratch =
  Array.init Gen_ir.n_mem_words (fun i -> A.get_i64 mem (scratch + (8 * i)))

let differential_one ?strategy ?fuse seed =
  let f = Gen_ir.generate ~complexity:15 seed in
  let args =
    [| Int64.of_int (seed * 7919); Int64.of_int (seed lxor 12345); Int64.of_int (-seed) |]
  in
  let mem1, scr1 = mem_with_scratch () in
  let ref_out = outcome (fun () -> run_ir f mem1 (Array.append args [| Int64.of_int scr1 |])) in
  let mem2, scr2 = mem_with_scratch () in
  let vm_out =
    outcome (fun () -> run_vm ?strategy ?fuse f mem2 (Array.append args [| Int64.of_int scr2 |]))
  in
  let same_result = ref_out = vm_out in
  let same_memory =
    match ref_out with
    | Ok _ -> mem_words mem1 scr1 = mem_words mem2 scr2
    | Error _ -> true (* memory state after trap is unspecified *)
  in
  same_result && same_memory

let prop_vm_matches_ir strategy fuse name =
  QCheck.Test.make ~name ~count:150 QCheck.small_nat (fun seed ->
      differential_one ~strategy ~fuse seed)

let () =
  Alcotest.run "vm"
    [
      ( "exec",
        [
          Alcotest.test_case "checked add" `Quick test_checked_add_ok;
          Alcotest.test_case "checked overflow" `Quick test_checked_add_overflow;
          Alcotest.test_case "sum loop" `Quick test_sum_loop;
          Alcotest.test_case "column sum" `Quick test_column_sum_and_loadidx_fusion;
          Alcotest.test_case "cell load fused" `Quick test_cell_load_fusion;
          Alcotest.test_case "tpch bytecode totals" `Quick test_tpch_bytecode_totals;
          Alcotest.test_case "runtime call" `Quick test_runtime_call;
          Alcotest.test_case "div by zero" `Quick test_division_by_zero_traps;
        ] );
      ( "fusion",
        [
          Alcotest.test_case "overflow-check fused" `Quick test_checked_fusion_applied;
          Alcotest.test_case "cmp+br fused" `Quick test_cmp_branch_fusion_applied;
          Alcotest.test_case "disasm" `Quick test_disasm_smoke;
        ] );
      ( "encoding",
        [
          QCheck_alcotest.to_alcotest prop_encoding_roundtrip;
          QCheck_alcotest.to_alcotest prop_gep_literal_roundtrip;
          Alcotest.test_case "field widths checked" `Quick test_field_widths_checked;
          Alcotest.test_case "disassembly pinned" `Quick test_disasm_pinned;
          Alcotest.test_case "register offsets checked at build" `Quick
            test_register_offsets_checked_at_build;
          Alcotest.test_case "short register file refused" `Quick
            test_short_register_file_refused;
        ] );
      ( "regalloc",
        [
          Alcotest.test_case "strategy ordering" `Quick test_regalloc_ordering;
          Alcotest.test_case "liveness covers uses" `Quick test_liveness_covers_uses;
          Alcotest.test_case "fig10 loop extension" `Quick test_loop_extension_fig10;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "overflow boundaries" `Quick test_overflow_boundaries;
          Alcotest.test_case "narrow canonical forms" `Quick test_narrow_canonical_forms;
          Alcotest.test_case "division" `Quick test_division_semantics;
          QCheck_alcotest.to_alcotest prop_ovf_exact_narrow;
          QCheck_alcotest.to_alcotest prop_exhaustive_i8;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest
            (prop_vm_matches_ir Aeq_vm.Regalloc.Loop_aware true "vm=ir (loop-aware, fused)");
          QCheck_alcotest.to_alcotest
            (prop_vm_matches_ir Aeq_vm.Regalloc.Loop_aware false "vm=ir (loop-aware, unfused)");
          QCheck_alcotest.to_alcotest
            (prop_vm_matches_ir (Aeq_vm.Regalloc.Window 4) true "vm=ir (window)");
          QCheck_alcotest.to_alcotest
            (prop_vm_matches_ir Aeq_vm.Regalloc.No_reuse true "vm=ir (no-reuse)");
        ] );
    ]
