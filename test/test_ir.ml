(* Tests for the IR layer: builder, verifier, RPO reordering,
   dominators, loop detection. *)

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* A diamond: entry -> (then | else) -> join. *)
let build_diamond () =
  let b = Builder.create ~name:"diamond" ~params:[ Types.I64 ] in
  let then_b = Builder.new_block b in
  let else_b = Builder.new_block b in
  let join_b = Builder.new_block b in
  let cond = Builder.icmp b Instr.Sgt Types.I64 (Builder.param b 0) (Instr.Imm 0L) in
  Builder.condbr b cond ~if_true:then_b ~if_false:else_b;
  Builder.switch_to b then_b;
  let tv = Builder.binop b Instr.Add Types.I64 (Builder.param b 0) (Instr.Imm 1L) in
  Builder.br b join_b;
  Builder.switch_to b else_b;
  let ev = Builder.binop b Instr.Sub Types.I64 (Builder.param b 0) (Instr.Imm 1L) in
  Builder.br b join_b;
  Builder.switch_to b join_b;
  let r = Builder.phi b Types.I64 [ (then_b, tv); (else_b, ev) ] in
  Builder.ret b r;
  let f = Builder.finish b in
  Cfg.reorder_rpo f;
  f

(* A counted loop: entry -> head -> (body -> head | exit). *)
let build_loop () =
  let b = Builder.create ~name:"loop" ~params:[ Types.I64 ] in
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
  Cfg.reorder_rpo f;
  f

let test_verify_accepts () =
  Verify.run (build_diamond ());
  Verify.run (build_loop ())

let test_verify_rejects_double_def () =
  let f = build_diamond () in
  (* Duplicate an instruction so its dst is defined twice. *)
  let blk = Func.block f 1 in
  blk.Block.instrs <- Array.append blk.Block.instrs blk.Block.instrs;
  match Verify.check f with
  | Ok () -> Alcotest.fail "expected double-definition to be rejected"
  | Error msg ->
    Alcotest.(check bool) "mentions double definition" true
      (contains_substring msg "defined twice")

let test_verify_rejects_bad_target () =
  let f = build_diamond () in
  let blk = Func.block f 1 in
  blk.Block.term <- Instr.Br 99;
  (match Verify.check f with
  | Ok () -> Alcotest.fail "expected ill-formed"
  | Error _ -> ())

let test_rpo_entry_first () =
  let f = build_loop () in
  Alcotest.(check int) "entry is 0" 0 (Func.block f 0).Block.id;
  (* RPO of entry->head->body->exit: every edge except back edges goes
     forward. *)
  Array.iter
    (fun (b : Block.t) ->
      List.iter
        (fun s ->
          if s <= b.Block.id then
            (* must be a back edge: the target dominates the source *)
            let dom = Dom.compute f in
            Alcotest.(check bool) "backward edge is a back edge" true
              (Dom.is_ancestor dom ~ancestor:s b.Block.id))
        (Block.successors b))
    f.Func.blocks

let test_rpo_drops_unreachable () =
  let b = Builder.create ~name:"unreach" ~params:[] in
  let dead = Builder.new_block b in
  Builder.ret_void b;
  Builder.switch_to b dead;
  Builder.ret_void b;
  let f = Builder.finish b in
  Alcotest.(check int) "two blocks before" 2 (Func.n_blocks f);
  Cfg.reorder_rpo f;
  Alcotest.(check int) "one block after" 1 (Func.n_blocks f)

let test_dominators_diamond () =
  let f = build_diamond () in
  let dom = Dom.compute f in
  (* Entry dominates everything; join's idom is the entry. *)
  for blk = 0 to Func.n_blocks f - 1 do
    Alcotest.(check bool) "entry dominates" true (Dom.is_ancestor dom ~ancestor:0 blk)
  done;
  (* Find the join block: the one with the phi. *)
  let join =
    Array.to_list f.Func.blocks
    |> List.find (fun (b : Block.t) -> Array.length b.Block.phis > 0)
  in
  Alcotest.(check int) "join idom = entry" 0 (Dom.idom dom join.Block.id);
  (* then/else do not dominate each other *)
  let then_else =
    Array.to_list f.Func.blocks
    |> List.filter (fun (b : Block.t) ->
           b.Block.id <> 0 && b.Block.id <> join.Block.id)
    |> List.map (fun (b : Block.t) -> b.Block.id)
  in
  match then_else with
  | [ x; y ] ->
    Alcotest.(check bool) "no cross-domination" false (Dom.is_ancestor dom ~ancestor:x y);
    Alcotest.(check bool) "no cross-domination" false (Dom.is_ancestor dom ~ancestor:y x)
  | _ -> Alcotest.fail "unexpected structure"

let test_loops_simple () =
  let f = build_loop () in
  let dom = Dom.compute f in
  let loops = Loops.compute f dom in
  (* Root pseudo-loop + one real loop. *)
  Alcotest.(check int) "two loops" 2 (Array.length (Loops.loops loops));
  let l = (Loops.loops loops).(1) in
  Alcotest.(check int) "loop depth" 1 l.Loops.depth;
  Alcotest.(check int) "loop parent is root" 0 l.Loops.parent;
  Alcotest.(check bool) "head flagged" true (Loops.is_loop_head loops l.Loops.head);
  (* body inside loop, exit outside *)
  Alcotest.(check bool) "head..last covers body" true (l.Loops.last >= l.Loops.head)

let test_loops_nested () =
  (* Two nested counted loops. *)
  let b = Builder.create ~name:"nested" ~params:[ Types.I64 ] in
  let oh = Builder.new_block b in
  let ob = Builder.new_block b in
  let ih = Builder.new_block b in
  let ib = Builder.new_block b in
  let oe = Builder.new_block b in
  let fin = Builder.new_block b in
  Builder.br b oh;
  Builder.switch_to b oh;
  let i = Builder.phi b Types.I64 [ (0, Instr.Imm 0L) ] in
  let ci = Builder.icmp b Instr.Slt Types.I64 i (Builder.param b 0) in
  Builder.condbr b ci ~if_true:ob ~if_false:fin;
  Builder.switch_to b ob;
  Builder.br b ih;
  Builder.switch_to b ih;
  let j = Builder.phi b Types.I64 [ (ob, Instr.Imm 0L) ] in
  let cj = Builder.icmp b Instr.Slt Types.I64 j (Instr.Imm 3L) in
  Builder.condbr b cj ~if_true:ib ~if_false:oe;
  Builder.switch_to b ib;
  let j' = Builder.binop b Instr.Add Types.I64 j (Instr.Imm 1L) in
  Builder.br b ih;
  Builder.add_phi_incoming b ~block:ih ~dst:j ~pred:ib j';
  Builder.switch_to b oe;
  let i' = Builder.binop b Instr.Add Types.I64 i (Instr.Imm 1L) in
  Builder.br b oh;
  Builder.add_phi_incoming b ~block:oh ~dst:i ~pred:oe i';
  Builder.switch_to b fin;
  Builder.ret b i;
  let f = Builder.finish b in
  Cfg.reorder_rpo f;
  Verify.run f;
  let dom = Dom.compute f in
  let loops = Loops.compute f dom in
  Alcotest.(check int) "three loops (root+outer+inner)" 3 (Array.length (Loops.loops loops));
  let depths =
    Array.to_list (Loops.loops loops) |> List.map (fun l -> l.Loops.depth) |> List.sort compare
  in
  Alcotest.(check (list int)) "depths 0,1,2" [ 0; 1; 2 ] depths;
  (* lca of inner and outer is outer *)
  let by_depth d =
    let arr = Loops.loops loops in
    let rec find i = if arr.(i).Loops.depth = d then i else find (i + 1) in
    find 0
  in
  let outer = by_depth 1 and inner = by_depth 2 in
  Alcotest.(check int) "lca(inner,outer)" outer (Loops.lca loops inner outer);
  Alcotest.(check int) "outermost_below root from inner" outer
    (Loops.outermost_below loops ~ancestor:(by_depth 0) inner)

let test_pp_smoke () =
  let s = Pp.func_to_string (build_loop ()) in
  Alcotest.(check bool) "mentions phi" true (contains_substring s "phi");
  Alcotest.(check bool) "mentions add" true (contains_substring s "add")

(* The immediate dominators as computed before [Dom.compute] folded
   predecessors in decreasing block id: the same Cooper-Harvey-Kennedy
   fixpoint over [Cfg.predecessors]' increasing order. *)
let reference_idoms (f : Func.t) =
  let n = Func.n_blocks f in
  let preds = Cfg.predecessors f in
  let idoms = Array.make n (-1) in
  idoms.(0) <- 0;
  let rec intersect a b =
    if a = b then a else if a > b then intersect idoms.(a) b else intersect a idoms.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = 1 to n - 1 do
      let d =
        List.fold_left
          (fun acc p ->
            if idoms.(p) < 0 then acc
            else match acc with None -> Some p | Some a -> Some (intersect p a))
          None preds.(b)
      in
      match d with
      | Some d when idoms.(b) <> d ->
        idoms.(b) <- d;
        changed := true
      | _ -> ()
    done
  done;
  idoms

let check_idoms_match name f =
  let dom = Dom.compute f in
  Alcotest.(check (array int)) name (reference_idoms f)
    (Array.init (Func.n_blocks f) (Dom.idom dom))

let test_dom_matches_reference_corpus () =
  List.iter
    (fun complexity ->
      for seed = 0 to 99 do
        check_idoms_match
          (Printf.sprintf "rand %d/%d" complexity seed)
          (Gen_ir.generate ~complexity seed)
      done)
    [ 5; 12; 25 ]

(* The Fig. 15 worker: one scan pipeline with [n_aggs] sum aggregates,
   every checked operation branching to the one shared overflow-trap
   block. *)
let fig15_catalog =
  lazy
    (let engine = Aeq.Engine.create ~n_threads:1 ~cost_model:Aeq_backend.Cost_model.off () in
     Aeq.Engine.load_tpch engine ~scale_factor:0.001;
     engine)

let fig15_worker n_aggs =
  let engine = Lazy.force fig15_catalog in
  let plan = Aeq.Engine.plan engine (Aeq_workload.Queries.large_query n_aggs) in
  Aeq_codegen.Codegen.pipeline_worker plan (Aeq_plan.Physical.layout plan) ~pipeline:0

let test_dom_matches_reference_fig15 () =
  check_idoms_match "fig15 800 aggregates" (fig15_worker 800)

let best_of_3 f =
  let best = ref infinity in
  for _ = 1 to 3 do
    (* start each run on an empty minor heap and a finished major cycle,
       so a collection the run did not cause is not timed *)
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

(* Linear, not quadratic: doubling the worker at most doubles the
   time, with headroom for noise (the increasing-order fold reads
   about 4x) *)
let test_dom_scales_linearly () =
  let f1 = fig15_worker 1600 and f2 = fig15_worker 3200 in
  let t1 = best_of_3 (fun () -> Dom.compute f1) in
  let t2 = best_of_3 (fun () -> Dom.compute f2) in
  let ratio = t2 /. t1 in
  if ratio >= 3.0 then
    Alcotest.failf "Dom.compute: %.2f ms at 3200 aggregates, %.2f ms at 1600 (%.2fx, bound 3x)"
      (t2 *. 1e3) (t1 *. 1e3) ratio

(* The block order [Layout.normalize] lays out, pinned: the printed
   workers of the 800-aggregate query and of every TPC-H pipeline, as
   generated and after the optimizing passes (which re-lay-out each
   round), digest to a recorded value. A change to code generation or
   to the passes that alters the IR records the new digest; a change
   to how the layout is computed must leave it as it is. *)
let test_layout_order_pinned () =
  let engine = Lazy.force fig15_catalog in
  let buf = Buffer.create (1 lsl 20) in
  let add f = Buffer.add_string buf (Pp.func_to_string f) in
  add (fig15_worker 800);
  List.iter
    (fun (_, sql) ->
      let plan = Aeq.Engine.plan engine sql in
      List.iter
        (fun f ->
          add f;
          Aeq_passes.Pass_manager.optimize f;
          add f)
        (Aeq_codegen.Codegen.all_workers plan (Aeq_plan.Physical.layout plan)))
    Aeq_workload.Queries.tpch;
  Alcotest.(check string) "block-order digest" "e1962780a9810d9a398ac640e25b8a04"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_analysis_counts () =
  let f = build_loop () in
  Alcotest.(check bool) "instrs > 0" true (Analysis.instruction_count f > 0);
  Alcotest.(check int) "blocks" 4 (Analysis.block_count f)

let prop_random_programs_verify =
  QCheck.Test.make ~name:"random programs are well-formed" ~count:100 QCheck.small_nat
    (fun seed ->
      let f = Gen_ir.generate seed in
      match Verify.check f with Ok () -> true | Error _ -> false)

let prop_layout_idempotent =
  QCheck.Test.make ~name:"Layout.normalize is idempotent" ~count:50 QCheck.small_nat
    (fun seed ->
      let f = Gen_ir.generate seed in
      (* generate already normalizes once *)
      let before = Pp.func_to_string f in
      Layout.normalize f;
      String.equal before (Pp.func_to_string f))

let prop_layout_loops_contiguous =
  QCheck.Test.make ~name:"normalized layout has contiguous loops" ~count:100
    QCheck.small_nat (fun seed ->
      let f = Gen_ir.generate ~complexity:20 seed in
      let dom = Dom.compute f in
      let loops = Loops.compute f dom in
      Loops.contiguous loops)

let () =
  Alcotest.run "ir"
    [
      ( "verify",
        [
          Alcotest.test_case "accepts well-formed" `Quick test_verify_accepts;
          Alcotest.test_case "rejects double def" `Quick test_verify_rejects_double_def;
          Alcotest.test_case "rejects bad target" `Quick test_verify_rejects_bad_target;
        ] );
      ( "cfg",
        [
          Alcotest.test_case "rpo entry first" `Quick test_rpo_entry_first;
          Alcotest.test_case "rpo drops unreachable" `Quick test_rpo_drops_unreachable;
        ] );
      ( "dom",
        [
          Alcotest.test_case "diamond" `Quick test_dominators_diamond;
          Alcotest.test_case "old fold's idoms, corpus" `Quick test_dom_matches_reference_corpus;
          Alcotest.test_case "old fold's idoms, fig15" `Quick test_dom_matches_reference_fig15;
          Alcotest.test_case "linear in worker size" `Quick test_dom_scales_linearly;
        ] );
      ("layout", [ Alcotest.test_case "block order pinned" `Quick test_layout_order_pinned ]);
      ( "loops",
        [
          Alcotest.test_case "simple" `Quick test_loops_simple;
          Alcotest.test_case "nested" `Quick test_loops_nested;
        ] );
      ( "misc",
        [
          Alcotest.test_case "pp" `Quick test_pp_smoke;
          Alcotest.test_case "analysis" `Quick test_analysis_counts;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_random_programs_verify;
          QCheck_alcotest.to_alcotest prop_layout_idempotent;
          QCheck_alcotest.to_alcotest prop_layout_loops_contiguous;
        ] );
    ]
