type t = { speedup_unopt : float; speedup_opt : float }

(* A scan-like kernel: loop over a synthetic column doing a filtered
   checked aggregation — representative of the per-tuple work in
   generated pipelines. *)
let build_kernel () =
  let b = Builder.create ~name:"calib" ~params:[ Types.Ptr; Types.I64 ] in
  let head = Builder.new_block b in
  let body = Builder.new_block b in
  let skip = Builder.new_block b in
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
  let keep = Builder.icmp b Instr.Sgt Types.I64 v (Instr.Imm 16L) in
  let masked = Builder.binop b Instr.And Types.I64 v (Instr.Imm 0xFFFFL) in
  let scaled = Builder.checked b Instr.OMul Types.I64 masked (Instr.Imm 3L) in
  let inc = Builder.select b Types.I64 keep scaled (Instr.Imm 1L) in
  let acc' = Builder.binop b Instr.Add Types.I64 acc inc in
  Builder.br b skip;
  Builder.switch_to b skip;
  let i' = Builder.binop b Instr.Add Types.I64 i (Instr.Imm 1L) in
  Builder.br b head;
  Builder.add_phi_incoming b ~block:head ~dst:i ~pred:skip i';
  Builder.add_phi_incoming b ~block:head ~dst:acc ~pred:skip acc';
  Builder.switch_to b exit;
  Builder.ret b acc;
  let f = Builder.finish b in
  Layout.normalize f;
  f

let no_symbols : Aeq_vm.Rt_fn.resolver = fun _ -> None

(* Each round times every tier once over [rows] rows, rotating which
   tier goes first; a tier's estimate is its fastest round. Interleaving
   gives the three tiers the same machine state (clock speed, caches,
   other load), so fewer and shorter runs suffice than timing the
   tiers one after another. *)
let rows = 12_288

let rounds = 3

let measure_uncached () =
  let mem = Aeq_mem.Arena.create ~chunk_size:(8 * rows) () in
  let alloc = Aeq_mem.Arena.allocator mem in
  let col = Aeq_mem.Arena.alloc alloc (8 * rows) in
  (* filled in place: one allocation is one contiguous run, and the
     inlined chunk primitive keeps each int64 unboxed *)
  let buf, base = Aeq_mem.Arena.chunk_of mem col in
  for i = 0 to rows - 1 do
    Aeq_mem.Arena.chunk_set_i64 buf (base + (8 * i)) (Int64.of_int (i land 1023))
  done;
  let f = build_kernel () in
  let args = [| Int64.of_int col; Int64.of_int rows |] in
  let prog = Aeq_vm.Translate.translate ~symbols:no_symbols f in
  let closure (c : Compiler.compiled) =
    let regs = Closure_compile.scratch c.Compiler.exec in
    fun () -> ignore (Closure_compile.run c.Compiler.exec ~regs ~args ())
  in
  let tiers =
    [|
      (let regs = Aeq_vm.Interp.scratch prog in
       fun () -> ignore (Aeq_vm.Interp.run prog mem ~regs ~args ()));
      closure
        (Compiler.compile_unopt_of_bytecode ~cost_model:Cost_model.off ~mem
           ~n_instrs:(Func.n_instrs f) prog);
      closure
        (Compiler.compile ~cost_model:Cost_model.off ~symbols:no_symbols ~mem
           ~mode:Cost_model.Opt f);
    |]
  in
  let best = Array.make 3 infinity in
  for round = 0 to rounds - 1 do
    for k = 0 to 2 do
      let tier = (round + k) mod 3 in
      let _, dt = Aeq_util.Clock.time_it tiers.(tier) in
      if dt < best.(tier) then best.(tier) <- dt
    done
  done;
  {
    speedup_unopt = Stdlib.max 1.01 (best.(0) /. best.(1));
    speedup_opt = Stdlib.max 1.02 (best.(0) /. best.(2));
  }

let cache = ref None

let measure () =
  match !cache with
  | Some t -> t
  | None ->
    let t = measure_uncached () in
    cache := Some t;
    t
