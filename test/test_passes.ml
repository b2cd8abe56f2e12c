(* Tests for the optimization passes: unit behaviours plus the
   end-to-end property that the full O2 pipeline preserves semantics
   on random programs. *)

module A = Aeq_mem.Arena
module PM = Aeq_passes.Pass_manager

let no_symbols : Aeq_vm.Rt_fn.resolver = fun _ -> None

(* straight-line function: ret (p0 + 2) * 3 + 0 with foldable junk *)
let build_foldable () =
  let b = Builder.create ~name:"fold" ~params:[ Types.I64 ] in
  let two = Builder.binop b Instr.Add Types.I64 (Instr.Imm 1L) (Instr.Imm 1L) in
  let x = Builder.binop b Instr.Add Types.I64 (Builder.param b 0) two in
  let y = Builder.binop b Instr.Mul Types.I64 x (Instr.Imm 3L) in
  let z = Builder.binop b Instr.Add Types.I64 y (Instr.Imm 0L) in
  let dead = Builder.binop b Instr.Mul Types.I64 z (Instr.Imm 100L) in
  ignore dead;
  Builder.ret b z;
  let f = Builder.finish b in
  Layout.normalize f;
  f

let test_const_fold_folds () =
  let f = build_foldable () in
  let before = Analysis.instruction_count f in
  let changed = Aeq_passes.Const_fold.run f in
  Alcotest.(check bool) "changed" true changed;
  ignore before;
  (* 1+1 folded away; x+0 gone *)
  Verify.run f

let test_dce_removes_dead () =
  let f = build_foldable () in
  let changed = Aeq_passes.Dce.run f in
  Alcotest.(check bool) "changed" true changed;
  let count = Analysis.instruction_count f in
  (* dead multiply removed *)
  let still_has_dead_mul =
    let found = ref false in
    Func.iter_instrs f (fun _ i ->
        match i with Instr.Binop { op = Instr.Mul; b = Instr.Imm 100L; _ } -> found := true | _ -> ());
    !found
  in
  Alcotest.(check bool) "dead mul removed" false still_has_dead_mul;
  Alcotest.(check bool) "smaller" true (count < 7);
  Verify.run f

let test_cse_dedups () =
  let b = Builder.create ~name:"cse" ~params:[ Types.I64; Types.I64 ] in
  let p0 = Builder.param b 0 and p1 = Builder.param b 1 in
  let x = Builder.binop b Instr.Add Types.I64 p0 p1 in
  let y = Builder.binop b Instr.Add Types.I64 p0 p1 in
  let z = Builder.binop b Instr.Mul Types.I64 x y in
  Builder.ret b z;
  let f = Builder.finish b in
  Layout.normalize f;
  let changed = Aeq_passes.Cse.run f in
  Alcotest.(check bool) "changed" true changed;
  ignore (Aeq_passes.Dce.run f);
  let adds = ref 0 in
  Func.iter_instrs f (fun _ i ->
      match i with Instr.Binop { op = Instr.Add; _ } -> incr adds | _ -> ());
  Alcotest.(check int) "one add left" 1 !adds;
  Verify.run f

let test_cse_commutative () =
  let b = Builder.create ~name:"csec" ~params:[ Types.I64; Types.I64 ] in
  let p0 = Builder.param b 0 and p1 = Builder.param b 1 in
  let x = Builder.binop b Instr.Mul Types.I64 p0 p1 in
  let y = Builder.binop b Instr.Mul Types.I64 p1 p0 in
  let z = Builder.binop b Instr.Add Types.I64 x y in
  Builder.ret b z;
  let f = Builder.finish b in
  Layout.normalize f;
  ignore (Aeq_passes.Cse.run f);
  ignore (Aeq_passes.Dce.run f);
  let muls = ref 0 in
  Func.iter_instrs f (fun _ i ->
      match i with Instr.Binop { op = Instr.Mul; _ } -> incr muls | _ -> ());
  Alcotest.(check int) "commutated mul deduped" 1 !muls

let test_simplify_cfg_constant_branch () =
  let b = Builder.create ~name:"scfg" ~params:[ Types.I64 ] in
  let t = Builder.new_block b in
  let e = Builder.new_block b in
  Builder.condbr b (Instr.Imm 1L) ~if_true:t ~if_false:e;
  Builder.switch_to b t;
  Builder.ret b (Instr.Imm 42L);
  Builder.switch_to b e;
  Builder.ret b (Instr.Imm 7L);
  let f = Builder.finish b in
  Layout.normalize f;
  ignore (Aeq_passes.Simplify_cfg.run f);
  Layout.normalize f;
  (* the constant branch is rewritten, the dead block pruned, and the
     taken block merged into the entry *)
  Alcotest.(check int) "single block remains" 1 (Func.n_blocks f);
  (match (Func.block f 0).Block.term with
  | Instr.Ret (Some (Instr.Imm 42L)) -> ()
  | _ -> Alcotest.fail "expected ret 42");
  Verify.run f

(* O2 pipeline must not change observable behaviour, and must leave
   the function laid out: re-running [Layout.normalize] on the result
   changes no block or instruction. *)
let o2_differential seed =
  let f = Gen_ir.generate ~complexity:15 seed in
  let clone = Func.copy f in
  PM.optimize ~check:true clone;
  let relaid = Func.copy clone in
  Layout.normalize relaid;
  let laid_out = compare relaid.Func.blocks clone.Func.blocks = 0 in
  let args =
    [| Int64.of_int (seed * 31); Int64.of_int (seed lxor 9999); Int64.of_int (3 - seed) |]
  in
  let run func =
    let mem = A.create () in
    let scratch = A.alloc (A.allocator mem) (8 * Gen_ir.n_mem_words) in
    let full_args = Array.append args [| Int64.of_int scratch |] in
    let out =
      match Aeq_vm.Ir_interp.run func mem ~symbols:no_symbols ~args:full_args with
      | v -> Ok v
      | exception Trap.Error m -> Error m
    in
    let words = Array.init Gen_ir.n_mem_words (fun i -> A.get_i64 mem (scratch + (8 * i))) in
    (out, words)
  in
  let out1, mem1 = run f in
  let out2, mem2 = run clone in
  laid_out && out1 = out2 && (match out1 with Ok _ -> mem1 = mem2 | Error _ -> true)

let prop_o2_preserves_semantics =
  QCheck.Test.make ~name:"O2 pipeline preserves semantics" ~count:150 QCheck.small_nat
    o2_differential

let prop_o2_never_grows =
  QCheck.Test.make ~name:"O2 never increases instruction count" ~count:50 QCheck.small_nat
    (fun seed ->
      let f = Gen_ir.generate ~complexity:15 seed in
      let before = Analysis.instruction_count f in
      PM.optimize f;
      Analysis.instruction_count f <= before)

let () =
  Alcotest.run "passes"
    [
      ( "unit",
        [
          Alcotest.test_case "const fold" `Quick test_const_fold_folds;
          Alcotest.test_case "dce" `Quick test_dce_removes_dead;
          Alcotest.test_case "cse" `Quick test_cse_dedups;
          Alcotest.test_case "cse commutative" `Quick test_cse_commutative;
          Alcotest.test_case "simplify-cfg constant branch" `Quick
            test_simplify_cfg_constant_branch;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_o2_preserves_semantics;
          QCheck_alcotest.to_alcotest prop_o2_never_grows;
        ] );
    ]
