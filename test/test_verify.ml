(* Tests for the static verification suite: the dataflow framework and
   precise liveness, the deep SSA verifier, the bytecode verifier
   (structural + abstract interpretation + allocation cross-check),
   pass-manager pinpointing under AEQ_VERIFY, and translation
   validation across the three execution engines. *)

module A = Aeq_mem.Arena
module BC = Aeq_vm.Bytecode
module BV = Aeq_vm.Bc_verify

let no_symbols : Aeq_vm.Rt_fn.resolver = fun _ -> None

let translate ?strategy f =
  Aeq_vm.Translate.translate ?strategy ~symbols:no_symbols f

let vid = function Instr.Vreg id -> id | _ -> assert false

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_contains what sub s =
  if not (contains s sub) then
    Alcotest.failf "%s: expected %S within:\n%s" what sub s

(* --- builders -------------------------------------------------------- *)

(* Counted loop summing 0..n-1; returns (f, i_phi, acc_phi, acc') ids. *)
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
  (f, vid i, vid acc, vid acc')

(* Two chained diamonds: the second one's φ inputs derive from the
   first one's φ — a small φ-web. *)
let build_phi_web () =
  let b = Builder.create ~name:"phiweb" ~params:[ Types.I64 ] in
  let t1 = Builder.new_block b in
  let e1 = Builder.new_block b in
  let j1 = Builder.new_block b in
  let t2 = Builder.new_block b in
  let e2 = Builder.new_block b in
  let j2 = Builder.new_block b in
  let p = Builder.param b 0 in
  let c = Builder.icmp b Instr.Slt Types.I64 p (Instr.Imm 10L) in
  Builder.condbr b c ~if_true:t1 ~if_false:e1;
  Builder.switch_to b t1;
  let a1 = Builder.binop b Instr.Add Types.I64 p (Instr.Imm 1L) in
  Builder.br b j1;
  Builder.switch_to b e1;
  let a2 = Builder.binop b Instr.Mul Types.I64 p (Instr.Imm 3L) in
  Builder.br b j1;
  Builder.switch_to b j1;
  let x =
    Builder.phi b Types.I64 [ (t1, a1); (e1, a2) ]
  in
  let c2 = Builder.icmp b Instr.Sgt Types.I64 x (Instr.Imm 100L) in
  Builder.condbr b c2 ~if_true:t2 ~if_false:e2;
  Builder.switch_to b t2;
  let b1 = Builder.binop b Instr.Sub Types.I64 x (Instr.Imm 7L) in
  Builder.br b j2;
  Builder.switch_to b e2;
  let b2 = Builder.binop b Instr.Add Types.I64 x x in
  Builder.br b j2;
  Builder.switch_to b j2;
  let y = Builder.phi b Types.I64 [ (t2, b1); (e2, b2) ] in
  let r = Builder.binop b Instr.Add Types.I64 x y in
  Builder.ret b r;
  let f = Builder.finish b in
  Layout.normalize f;
  f

(* Register pressure: many simultaneously-live values, consumed in
   reverse definition order so none can be released early. *)
let build_pressure () =
  let b = Builder.create ~name:"pressure" ~params:[ Types.I64 ] in
  let p = Builder.param b 0 in
  let vs =
    List.init 12 (fun k ->
        Builder.binop b Instr.Add Types.I64 p (Instr.Imm (Int64.of_int (k + 1))))
  in
  let acc =
    List.fold_left
      (fun acc v -> Builder.binop b Instr.Add Types.I64 v acc)
      (Instr.Imm 0L) (List.rev vs)
  in
  Builder.ret b acc;
  let f = Builder.finish b in
  Layout.normalize f;
  f

(* Fig. 10 shape: a value defined before a loop, used one level deeper
   inside it — its lifetime must cover the whole loop (back edge). *)
let build_loop_backedge () =
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
  f

let all_strategies =
  [
    ("loop-aware", Aeq_vm.Regalloc.Loop_aware);
    ("window1", Aeq_vm.Regalloc.Window 1);
    ("window4", Aeq_vm.Regalloc.Window 4);
    ("no-reuse", Aeq_vm.Regalloc.No_reuse);
  ]

(* --- dataflow framework / liveness ----------------------------------- *)

let test_bitset () =
  let module B = Dataflow.Bitset in
  let s = B.create 300 in
  List.iter (B.add s) [ 0; 31; 32; 63; 64; 299 ];
  Alcotest.(check (list int)) "elements" [ 0; 31; 32; 63; 64; 299 ] (B.elements s);
  Alcotest.(check int) "cardinal" 6 (B.cardinal s);
  Alcotest.(check bool) "mem 64" true (B.mem s 64);
  Alcotest.(check bool) "mem 65" false (B.mem s 65);
  B.remove s 63;
  Alcotest.(check bool) "removed" false (B.mem s 63);
  let t = B.create 300 in
  B.add t 7;
  Alcotest.(check bool) "union grows" true (B.union_into ~into:t s);
  Alcotest.(check bool) "union fixpoint" false (B.union_into ~into:t s);
  Alcotest.(check bool) "subset absorbed" false (B.union_into ~into:t (B.copy s));
  Alcotest.(check bool) "not equal" false (B.equal s t);
  B.add s 7;
  Alcotest.(check bool) "equal after add" true (B.equal s t)

let test_liveness_sum_loop () =
  let f, i, acc, acc' = build_sum_loop () in
  let lv = Analysis.liveness f in
  let head =
    (Array.to_list f.Func.blocks
    |> List.find (fun (b : Block.t) -> Array.length b.Block.phis > 0))
      .Block.id
  in
  let body =
    (Array.to_list f.Func.blocks
    |> List.find (fun (b : Block.t) ->
           b.Block.id <> 0 && List.mem head (Block.successors b)))
      .Block.id
  in
  let module B = Dataflow.Bitset in
  (* φ destinations are written by the predecessors: live into the head *)
  Alcotest.(check bool) "i live into head" true (B.mem lv.Analysis.live_in.(head) i);
  Alcotest.(check bool) "acc live into head" true (B.mem lv.Analysis.live_in.(head) acc);
  (* ... and therefore out of the entry block *)
  Alcotest.(check bool) "i live out of entry" true (B.mem lv.Analysis.live_out.(0) i);
  (* the bound parameter is live from function entry *)
  Alcotest.(check bool) "param live at entry" true (B.mem lv.Analysis.live_in.(0) 0);
  (* the body-local sum is consumed by the φ copy at the body's end:
     live nowhere else *)
  Alcotest.(check bool) "acc' not live into body" false
    (B.mem lv.Analysis.live_in.(body) acc');
  Alcotest.(check bool) "acc' not live into head" false
    (B.mem lv.Analysis.live_in.(head) acc')

(* --- deep SSA verifier ----------------------------------------------- *)

let test_verify_collects_all () =
  let f, _, _, _ = build_sum_loop () in
  f.Func.blocks.(1).Block.term <- Instr.Br 99;
  f.Func.blocks.(2).Block.term <- Instr.Br 98;
  let errs = Verify.errors (Verify.diagnostics f) in
  Alcotest.(check bool) "at least two errors" true (List.length errs >= 2);
  let rendered = Verify.report errs in
  check_contains "report" "missing block 99" rendered;
  check_contains "report" "missing block 98" rendered;
  (match Verify.check f with
  | Ok () -> Alcotest.fail "check accepted a broken function"
  | Error m -> check_contains "check message" "missing block" m);
  Alcotest.(check bool) "run raises" true
    (try
       Verify.run f;
       false
     with Verify.Ill_formed _ -> true)

let test_verify_dominance () =
  (* join uses a value defined only on the then-path: no φ, no dominance *)
  let b = Builder.create ~name:"nodom" ~params:[ Types.I64 ] in
  let then_ = Builder.new_block b in
  let else_ = Builder.new_block b in
  let join = Builder.new_block b in
  let p = Builder.param b 0 in
  let c = Builder.icmp b Instr.Slt Types.I64 p (Instr.Imm 5L) in
  Builder.condbr b c ~if_true:then_ ~if_false:else_;
  Builder.switch_to b then_;
  let v = Builder.binop b Instr.Add Types.I64 p (Instr.Imm 1L) in
  Builder.br b join;
  Builder.switch_to b else_;
  Builder.br b join;
  Builder.switch_to b join;
  let u = Builder.binop b Instr.Add Types.I64 v (Instr.Imm 1L) in
  Builder.ret b u;
  let f = Builder.finish b in
  Layout.normalize f;
  let errs = Verify.errors (Verify.diagnostics f) in
  Alcotest.(check bool) "rejected" true (errs <> []);
  check_contains "dominance" "not dominated" (Verify.report errs)

let test_verify_phi_incoming_mismatch () =
  let b = Builder.create ~name:"phimiss" ~params:[ Types.I64 ] in
  let then_ = Builder.new_block b in
  let else_ = Builder.new_block b in
  let join = Builder.new_block b in
  let p = Builder.param b 0 in
  let c = Builder.icmp b Instr.Slt Types.I64 p (Instr.Imm 5L) in
  Builder.condbr b c ~if_true:then_ ~if_false:else_;
  Builder.switch_to b then_;
  let v = Builder.binop b Instr.Add Types.I64 p (Instr.Imm 1L) in
  Builder.br b join;
  Builder.switch_to b else_;
  Builder.br b join;
  Builder.switch_to b join;
  (* only one of the two predecessors supplies a value *)
  let x = Builder.phi b Types.I64 [ (then_, v) ] in
  Builder.ret b x;
  let f = Builder.finish b in
  Layout.normalize f;
  let errs = Verify.errors (Verify.diagnostics f) in
  Alcotest.(check bool) "rejected" true (errs <> []);
  check_contains "phi mismatch" "incoming" (Verify.report errs)

(* The φ diagnostics name the φ in their text, built only when a
   check fails: pin the exact lines for an undefined incoming value, a
   float incoming into an i64 φ, and an instruction redefining a φ. *)
let test_verify_phi_messages () =
  let f, i, acc, _ = build_sum_loop () in
  let head = Func.block f 1 and body = Func.block f 2 in
  let undefined = f.Func.n_values + 5 in
  head.Block.phis <-
    Array.map
      (fun (p : Instr.phi) ->
        let incoming =
          Array.map
            (fun (pred, v) ->
              if p.dst = acc && pred = 2 then (pred, Instr.Vreg undefined)
              else if p.dst = i && pred = 0 then (pred, Instr.Fimm 1.5)
              else (pred, v))
            p.incoming
        in
        { p with incoming })
      head.Block.phis;
  body.Block.instrs.(0) <- Instr.with_dst body.Block.instrs.(0) i;
  let report = Verify.report (Verify.diagnostics f) in
  List.iter
    (fun line -> check_contains "phi messages" line report)
    [
      Printf.sprintf "sum: block 2, instr 0: value %%%d defined twice (instruction result)" i;
      Printf.sprintf "sum: block 1: use of undefined value %%%d (phi %%%d incoming)" undefined
        acc;
      Printf.sprintf "sum: block 1: phi %%%d expects i64 but got a float immediate" i;
    ]

let test_verify_sibling_phi_hazard () =
  (* Self-loop header d = φ(entry: 0, header: d+1), exit φ x = d: the
     exit edge's copy reads d after the back edge's copy set has
     already overwritten it — the translator would miscompile this, so
     the verifier must reject it. *)
  let b = Builder.create ~name:"lcssa" ~params:[] in
  let head = Builder.new_block b in
  let exit = Builder.new_block b in
  Builder.br b head;
  Builder.switch_to b head;
  let d = Builder.phi b Types.I64 [ (0, Instr.Imm 0L) ] in
  let d' = Builder.binop b Instr.Add Types.I64 d (Instr.Imm 1L) in
  let c = Builder.icmp b Instr.Slt Types.I64 d' (Instr.Imm 10L) in
  Builder.condbr b c ~if_true:head ~if_false:exit;
  Builder.add_phi_incoming b ~block:head ~dst:d ~pred:head d';
  Builder.switch_to b exit;
  let x = Builder.phi b Types.I64 [ (head, d) ] in
  Builder.ret b x;
  let f = Builder.finish b in
  Layout.normalize f;
  let errs = Verify.errors (Verify.diagnostics f) in
  Alcotest.(check bool) "rejected" true (errs <> []);
  check_contains "hazard" "sibling" (Verify.report errs)

let test_verify_accepts_corpus () =
  for seed = 0 to 60 do
    let f = Gen_ir.generate ~complexity:15 seed in
    match Verify.errors (Verify.diagnostics f) with
    | [] -> ()
    | errs -> Alcotest.failf "seed %d rejected:\n%s" seed (Verify.report errs)
  done

(* --- bytecode verifier: acceptance ----------------------------------- *)

let test_bc_accepts_generated () =
  for seed = 0 to 60 do
    let f = Gen_ir.generate ~complexity:15 seed in
    List.iter
      (fun (sname, strategy) ->
        let prog = translate ~strategy f in
        match BV.check_translation ~strategy f prog with
        | [] -> ()
        | ds ->
          Alcotest.failf "seed %d (%s) rejected:\n%s" seed sname
            (BV.report prog.BC.name ds))
      all_strategies
  done

let test_bc_accepts_edge_cases () =
  List.iter
    (fun f ->
      List.iter
        (fun (sname, strategy) ->
          let prog = translate ~strategy f in
          (match BV.check_translation ~strategy f prog with
          | [] -> ()
          | ds ->
            Alcotest.failf "%s (%s) rejected:\n%s" f.Func.name sname
              (BV.report prog.BC.name ds));
          (* the strategies must also agree on the answer *)
          let mem = A.create () in
          let r = Aeq_vm.Interp.run prog mem ~args:[| 9L |] () in
          let mem' = A.create () in
          let base = translate f in
          let r' = Aeq_vm.Interp.run base mem' ~args:[| 9L |] () in
          if r <> r' then
            Alcotest.failf "%s: %s disagrees (%Ld vs %Ld)" f.Func.name sname r r')
        all_strategies)
    [
      (let f, _, _, _ = build_sum_loop () in
       f);
      build_phi_web ();
      build_pressure ();
      build_loop_backedge ();
    ]

(* --- bytecode verifier: rejections ----------------------------------- *)

(* A copy of [prog] whose instruction [idx] is [f] of the original,
   re-encoded. *)
let mutate_code prog idx f =
  let copy =
    {
      prog with
      BC.code = Array.copy prog.BC.code;
      ext = Array.copy prog.BC.ext;
      lits = Array.copy prog.BC.lits;
    }
  in
  BC.set copy idx (f (BC.get prog idx));
  copy

let insns prog = Array.init (Array.length prog.BC.code) (BC.get prog)

let break_first_jump prog =
  let found = ref None in
  Array.iteri
    (fun i (ins : BC.insn) ->
      if !found = None then
        match ins.BC.op with
        | Aeq_vm.Opcode.Jmp -> found := Some (i, fun ins -> { ins with BC.a = 9999 })
        | Aeq_vm.Opcode.CondJmp ->
          found := Some (i, fun ins -> { ins with BC.b = 9999 })
        | Aeq_vm.Opcode.JmpEq | Aeq_vm.Opcode.JmpNe | Aeq_vm.Opcode.JmpSlt
        | Aeq_vm.Opcode.JmpSle | Aeq_vm.Opcode.JmpSgt | Aeq_vm.Opcode.JmpSge ->
          found := Some (i, fun ins -> { ins with BC.c = 9999 })
        | _ -> ())
    (insns prog);
  match !found with
  | Some (i, f) -> mutate_code prog i f
  | None -> Alcotest.fail "no jump instruction to mutate"

let test_reject_out_of_bounds_jump () =
  let f, _, _, _ = build_sum_loop () in
  let bad = break_first_jump (translate f) in
  let ds = BV.check_program bad in
  Alcotest.(check bool) "rejected" true (ds <> []);
  check_contains "message" "jump target" (BV.report bad.BC.name ds);
  Alcotest.(check bool) "verify raises" true
    (try
       BV.verify bad;
       false
     with BV.Rejected _ -> true)

let test_reject_read_before_write () =
  (* Slots 0/8 hold the constant pool; 16/24 are dynamic and never
     written before the add reads them. *)
  let insn op a b c = { BC.op; a; b; c; d = 0; e = 0; lit = 0 } in
  let code = [| insn Aeq_vm.Opcode.Add_i64 16 16 24; insn Aeq_vm.Opcode.RetVal 16 0 0 |] in
  let bad =
    {
      BC.name = "rbw";
      code = Array.make 2 0;
      ext = Array.make 2 0;
      lits = Array.make 2 0;
      n_reg_bytes = 32;
      const_pool = [| 0L; 1L |];
      param_offsets = [||];
      rt_table = [||];
      messages = [||];
      src_instr_count = 2;
    }
  in
  Array.iteri (BC.set bad) code;
  let ds = BV.check_program bad in
  Alcotest.(check bool) "rejected" true (ds <> []);
  check_contains "message" "before any write" (BV.report bad.BC.name ds)

let test_reject_clobbered_live_register () =
  let f, i, acc, _ = build_sum_loop () in
  (* A distinct slot per value is trivially clobber-free... *)
  let distinct = Array.init f.Func.n_values (fun v -> 8 * v) in
  Alcotest.(check bool) "distinct slots accepted" true
    (BV.check_allocation f ~slot_offset:distinct = []);
  (* ... but merging the two loop φs (live together through the whole
     loop) must be caught. *)
  distinct.(acc) <- distinct.(i);
  let ds = BV.check_allocation f ~slot_offset:distinct in
  Alcotest.(check bool) "rejected" true (ds <> []);
  check_contains "message" "clobbers" (BV.report "sum" ds)

let test_reject_bad_register_offsets () =
  let f, _, _, _ = build_sum_loop () in
  let prog = translate f in
  (* a write beyond the register file *)
  let oob =
    mutate_code prog 0 (fun ins -> { ins with BC.a = prog.BC.n_reg_bytes + 8 })
  in
  check_contains "oob write" "out of bounds" (BV.report "sum" (BV.check_program oob));
  (* a write onto a constant-pool slot *)
  let const_w = mutate_code prog 0 (fun ins -> { ins with BC.a = 0 }) in
  let insn0 = BC.get prog 0 in
  (* only meaningful if insn 0 writes a register; the translator's
     first insn of this function is a φ-seeding Mov *)
  Alcotest.(check bool) "first insn is a mov" true (insn0.BC.op = Aeq_vm.Opcode.Mov);
  check_contains "const write" "constant-pool"
    (BV.report "sum" (BV.check_program const_w))

(* The three instruction arrays come from outside the verifier: one
   shorter than the others, or a code word whose opcode field names no
   opcode, is reported before anything decodes them. *)
let test_reject_malformed_encoding () =
  let f, _, _, _ = build_sum_loop () in
  let prog = translate f in
  let short = { prog with BC.ext = Array.sub prog.BC.ext 0 1 } in
  check_contains "short ext" "instruction arrays disagree"
    (BV.report "sum" (BV.check_program short));
  let code = Array.copy prog.BC.code in
  code.(0) <- code.(0) lor 0xff;
  check_contains "bad opcode" "pc 0: opcode 255 out of range"
    (BV.report "sum" (BV.check_program { prog with BC.code }))

(* --- pass-manager pinpointing ---------------------------------------- *)

let with_verify f =
  let old = Aeq_util.Verify_mode.enabled () in
  Fun.protect
    ~finally:(fun () -> Aeq_util.Verify_mode.set old)
    (fun () ->
      Aeq_util.Verify_mode.set true;
      f ())

let test_broken_pass_pinpointed () =
  with_verify @@ fun () ->
  let f = Gen_ir.generate ~complexity:10 3 in
  let evil (f : Func.t) =
    f.Func.blocks.(0).Block.term <- Instr.Br 99;
    true
  in
  match Aeq_passes.Pass_manager.run_pass ~name:"evil_cfg" evil f with
  | _ -> Alcotest.fail "broken pass not detected"
  | exception Invalid_argument msg ->
    check_contains "names the pass" "pass evil_cfg broke" msg;
    check_contains "carries the diagnostic" "missing block" msg

let test_optimize_verifies_when_armed () =
  (* the stock pipeline on the corpus stays clean under verification *)
  with_verify @@ fun () ->
  for seed = 0 to 30 do
    let f = Gen_ir.generate ~complexity:15 seed in
    Aeq_passes.Pass_manager.optimize f
  done

(* --- disassembler / opcode sweep ------------------------------------- *)

let test_opcode_all () =
  let all = Aeq_vm.Opcode.all in
  Alcotest.(check int) "complete" Aeq_vm.Opcode.count (List.length all);
  Alcotest.(check bool) "covers the full ISA" true (Aeq_vm.Opcode.count > 100);
  let names = List.map Aeq_vm.Opcode.to_string all in
  Alcotest.(check int) "mnemonics distinct"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun n -> Alcotest.(check bool) "mnemonic non-empty" true (String.length n > 0))
    names;
  Alcotest.(check bool) "first is mov" true
    (List.hd all = Aeq_vm.Opcode.Mov);
  Alcotest.(check bool) "last is call_r4" true
    (List.nth all (Aeq_vm.Opcode.count - 1) = Aeq_vm.Opcode.CallR4)

(* --- workload corpus: codegen → verify → disassemble ------------------ *)

let test_workload_corpus () =
  let catalog = Aeq_storage.Catalog.create () in
  Aeq_workload.Tpch.load ~scale_factor:0.001 catalog;
  let ctx =
    Aeq_rt.Context.create
      ~arena:(Aeq_storage.Catalog.arena catalog)
      ~dict:(Aeq_storage.Catalog.dict catalog)
      ~n_threads:1 ()
  in
  let symbols = Aeq_rt.Symbols.resolver ctx in
  let n_workers = ref 0 in
  let opcodes = Hashtbl.create 64 in
  List.iter
    (fun (qname, sql) ->
      let plan = Aeq_plan.Planner.plan_sql catalog sql in
      let layout = Aeq_plan.Physical.layout plan in
      List.iter
        (fun (f : Func.t) ->
          incr n_workers;
          (match Verify.errors (Verify.diagnostics f) with
          | [] -> ()
          | errs ->
            Alcotest.failf "%s worker %s: SSA verifier rejected:\n%s" qname
              f.Func.name (Verify.report errs));
          let prog = Aeq_vm.Translate.translate ~symbols f in
          (match BV.check_translation f prog with
          | [] -> ()
          | ds ->
            Alcotest.failf "%s worker %s: bytecode verifier rejected:\n%s" qname
              f.Func.name (BV.report prog.BC.name ds));
          Array.iter (fun (i : BC.insn) -> Hashtbl.replace opcodes i.BC.op ()) (insns prog);
          (* the disassembly must cover every instruction *)
          let text = Aeq_vm.Disasm.program prog in
          let lines =
            String.split_on_char '\n' text
            |> List.filter (fun l -> String.length l > 0)
          in
          if List.length lines < Array.length prog.BC.code then
            Alcotest.failf "%s worker %s: disassembly shorter than the program"
              qname f.Func.name)
        (Aeq_codegen.Codegen.all_workers plan layout))
    Aeq_workload.Queries.tpch;
  Alcotest.(check bool) "several pipelines verified" true (!n_workers >= 20);
  Alcotest.(check bool)
    (Printf.sprintf "broad opcode coverage (%d distinct)" (Hashtbl.length opcodes))
    true
    (Hashtbl.length opcodes > 25)

(* --- translation validation ------------------------------------------ *)

let outcome run =
  match run () with v -> Ok v | exception Trap.Error m -> Error m

let mem_with_scratch () =
  let mem = A.create () in
  let alloc = A.allocator mem in
  let scratch = A.alloc alloc (8 * Gen_ir.n_mem_words) in
  (mem, scratch)

let mem_words mem scratch =
  Array.init Gen_ir.n_mem_words (fun i -> A.get_i64 mem (scratch + (8 * i)))

(* The same generated function under all three engines: the direct IR
   evaluator, the bytecode interpreter, and the closure backend. *)
let differential3 seed =
  let f = Gen_ir.generate ~complexity:15 seed in
  let args =
    [| Int64.of_int (seed * 7919); Int64.of_int (seed lxor 12345); Int64.of_int (-seed) |]
  in
  let mem1, scr1 = mem_with_scratch () in
  let ir_out =
    outcome (fun () ->
        Aeq_vm.Ir_interp.run f mem1 ~symbols:no_symbols
          ~args:(Array.append args [| Int64.of_int scr1 |]))
  in
  let prog = translate f in
  let mem2, scr2 = mem_with_scratch () in
  let vm_out =
    outcome (fun () ->
        Aeq_vm.Interp.run prog mem2 ~args:(Array.append args [| Int64.of_int scr2 |]) ())
  in
  let mem3, scr3 = mem_with_scratch () in
  let cc = Aeq_backend.Closure_compile.compile prog mem3 in
  let cc_out =
    outcome (fun () ->
        Aeq_backend.Closure_compile.run cc
          ~args:(Array.append args [| Int64.of_int scr3 |])
          ())
  in
  let same_results = ir_out = vm_out && vm_out = cc_out in
  let same_memory =
    match ir_out with
    | Ok _ -> mem_words mem1 scr1 = mem_words mem2 scr2 && mem_words mem2 scr2 = mem_words mem3 scr3
    | Error _ -> true (* memory after a trap is unspecified *)
  in
  same_results && same_memory

let prop_three_way =
  QCheck.Test.make ~name:"ir = vm = closures on random programs" ~count:120
    QCheck.small_nat differential3

let test_engine_verify_query () =
  with_verify @@ fun () ->
  let engine =
    Aeq.Engine.create ~n_threads:2 ~cost_model:Aeq_backend.Cost_model.default ()
  in
  Fun.protect ~finally:(fun () -> Aeq.Engine.close engine) @@ fun () ->
  Aeq.Engine.load_tpch engine ~scale_factor:0.002;
  List.iter
    (fun sql ->
      match Aeq.Engine.verify_query engine sql with
      | Ok () -> ()
      | Error report -> Alcotest.failf "verify_query %S:\n%s" sql report)
    [
      "select count(*) as c from lineitem";
      "select l_returnflag, count(*) as c, sum(l_quantity) as q from lineitem \
       group by l_returnflag";
    ]

let () =
  Alcotest.run "verify"
    [
      ( "dataflow",
        [
          Alcotest.test_case "bitset" `Quick test_bitset;
          Alcotest.test_case "liveness on sum loop" `Quick test_liveness_sum_loop;
        ] );
      ( "ssa",
        [
          Alcotest.test_case "collects all diagnostics" `Quick test_verify_collects_all;
          Alcotest.test_case "dominance violation" `Quick test_verify_dominance;
          Alcotest.test_case "phi incoming mismatch" `Quick
            test_verify_phi_incoming_mismatch;
          Alcotest.test_case "phi messages" `Quick test_verify_phi_messages;
          Alcotest.test_case "sibling phi copy hazard" `Quick
            test_verify_sibling_phi_hazard;
          Alcotest.test_case "accepts generated corpus" `Quick test_verify_accepts_corpus;
        ] );
      ( "bytecode",
        [
          Alcotest.test_case "accepts generated corpus" `Quick test_bc_accepts_generated;
          Alcotest.test_case "accepts regalloc edge cases" `Quick
            test_bc_accepts_edge_cases;
          Alcotest.test_case "rejects out-of-bounds jump" `Quick
            test_reject_out_of_bounds_jump;
          Alcotest.test_case "rejects read-before-write" `Quick
            test_reject_read_before_write;
          Alcotest.test_case "rejects clobbered live register" `Quick
            test_reject_clobbered_live_register;
          Alcotest.test_case "rejects bad register offsets" `Quick
            test_reject_bad_register_offsets;
          Alcotest.test_case "rejects malformed encoding" `Quick
            test_reject_malformed_encoding;
        ] );
      ( "passes",
        [
          Alcotest.test_case "broken pass pinpointed" `Quick test_broken_pass_pinpointed;
          Alcotest.test_case "pipeline clean under verification" `Quick
            test_optimize_verifies_when_armed;
        ] );
      ( "disasm",
        [ Alcotest.test_case "opcode table complete" `Quick test_opcode_all ] );
      ( "workload",
        [ Alcotest.test_case "tpch corpus verified" `Slow test_workload_corpus ] );
      ( "translation-validation",
        [
          QCheck_alcotest.to_alcotest prop_three_way;
          Alcotest.test_case "engine modes agree" `Slow test_engine_verify_query;
        ] );
    ]
