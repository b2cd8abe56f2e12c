(* Deep SSA well-formedness checking.

   Unlike the original first-failure checker, every check collects
   *all* violations with (function, block, instruction) context, so a
   broken pass reports the complete damage in one run. The checks are
   layered: structural properties (value ranges, unique definitions,
   branch targets, block numbering) come first because the CFG-based
   phases index by target and walk dominator trees — if the structure
   is broken the deep phases are skipped rather than crash. *)

exception Ill_formed of string

type severity = Error | Warning

type diagnostic = {
  severity : severity;
  func_name : string;
  block : int option;
  instr : int option;
  message : string;
}

let diagnostic_to_string d =
  let where =
    match (d.block, d.instr) with
    | Some b, Some i -> Printf.sprintf " block %d, instr %d:" b i
    | Some b, None -> Printf.sprintf " block %d:" b
    | None, _ -> ""
  in
  let sev = match d.severity with Error -> "" | Warning -> " warning:" in
  Printf.sprintf "%s:%s%s %s" d.func_name sev where d.message

let errors ds = List.filter (fun d -> d.severity = Error) ds

let report ds = String.concat "\n" (List.map diagnostic_to_string ds)

let value_name = Printf.sprintf "%%%d"

let diagnostics (f : Func.t) : diagnostic list =
  let diags = ref [] in
  let emit ?block ?instr severity fmt =
    Format.kasprintf
      (fun message ->
        diags := { severity; func_name = f.Func.name; block; instr; message } :: !diags)
      fmt
  in
  let n = Func.n_blocks f in
  if n = 0 then begin
    emit Error "function has no blocks";
    List.rev !diags
  end
  else begin
    (* ---- phase 1: structure ------------------------------------------ *)
    let structure_ok = ref true in
    let nv = f.Func.n_values in
    let defined = Array.make (Stdlib.max nv 1) false in
    for p = 0 to Array.length f.Func.params - 1 do
      if p < nv then defined.(p) <- true
    done;
    (* [instr] is the defining instruction's index, -1 for a φ. The
       messages of this and the checks below are built only for a
       value that fails, so well-formed IR formats none. *)
    let define b ~instr id =
      if id < 0 || id >= nv || defined.(id) then begin
        let what = if instr < 0 then "phi " ^ value_name id else "instruction result" in
        let instr = if instr < 0 then None else Some instr in
        if id < 0 || id >= nv then
          emit Error ~block:b ?instr "value %s out of range (%s)" (value_name id) what
        else emit Error ~block:b ?instr "value %s defined twice (%s)" (value_name id) what
      end
      else defined.(id) <- true
    in
    Array.iteri
      (fun idx (b : Block.t) ->
        if b.id <> idx then begin
          emit Error ~block:idx "block id %d does not match its index" b.id;
          structure_ok := false
        end)
      f.Func.blocks;
    Array.iter
      (fun (b : Block.t) ->
        Array.iter (fun (p : Instr.phi) -> define b.id ~instr:(-1) p.dst) b.phis;
        Array.iteri
          (fun i ins ->
            match Instr.dst_of ins with Some d -> define b.id ~instr:i d | None -> ())
          b.instrs)
      f.Func.blocks;
    let undefined = function
      | Instr.Vreg id -> id < 0 || id >= nv || not defined.(id)
      | Instr.Imm _ | Instr.Fimm _ -> false
    in
    let check_value ?instr b what v =
      match v with
      | Instr.Vreg id when undefined v ->
        emit Error ~block:b ?instr "use of undefined value %s (%s)" (value_name id) what
      | _ -> ()
    in
    let check_target b t =
      if t < 0 || t >= n then begin
        emit Error ~block:b "branch to missing block %d" t;
        structure_ok := false
      end
    in
    Array.iter
      (fun (b : Block.t) ->
        Array.iter
          (fun (p : Instr.phi) ->
            Array.iter
              (fun (_, v) ->
                if undefined v then
                  check_value b.id (Printf.sprintf "phi %s incoming" (value_name p.dst)) v)
              p.incoming)
          b.phis;
        Array.iteri
          (fun i ins ->
            Instr.iter_operands
              (fun v -> if undefined v then check_value ~instr:i b.id "operand" v)
              ins)
          b.instrs;
        match b.term with
        | Instr.Br t -> check_target b.id t
        | Instr.CondBr { cond; if_true; if_false } ->
          check_value b.id "branch condition" cond;
          check_target b.id if_true;
          check_target b.id if_false
        | Instr.Ret (Some v) -> check_value b.id "return value" v
        | Instr.Ret None | Instr.Abort _ -> ())
      f.Func.blocks;
    (* ---- result-type agreement --------------------------------------- *)
    let ty_of id = if id >= 0 && id < nv then Some (Func.ty_of f id) else None in
    Array.iter
      (fun (b : Block.t) ->
        Array.iter
          (fun (p : Instr.phi) ->
            match ty_of p.dst with
            | Some t when not (Types.equal t p.ty) ->
              emit Error ~block:b.id "phi %s declared %s but typed %s" (value_name p.dst)
                (Types.to_string t) (Types.to_string p.ty)
            | _ -> ())
          b.phis;
        Array.iteri
          (fun i ins ->
            match (Instr.dst_of ins, Instr.result_ty ins) with
            | Some d, Some ty -> (
              match ty_of d with
              | Some t when not (Types.equal t ty) ->
                emit Error ~block:b.id ~instr:i "value %s declared %s but instruction yields %s"
                  (value_name d) (Types.to_string t) (Types.to_string ty)
              | _ -> ())
            | _ -> ())
          b.instrs)
      f.Func.blocks;
    (* ---- operand-type agreement -------------------------------------- *)
    (* Ptr and I64 interchange freely: both are canonical 8-byte
       integers in this VM, and codegen mixes them (pointer arithmetic
       through I64, I64 bases in geps). Width or int/float mismatches
       are real errors. *)
    let compatible want got =
      Types.equal want got
      ||
      match (want, got) with
      | (Types.Ptr | Types.I64), (Types.Ptr | Types.I64) -> true
      | _ -> false
    in
    let mismatch want = function
      | Instr.Vreg id -> id >= 0 && id < nv && not (compatible want (Func.ty_of f id))
      | Instr.Imm _ -> Types.is_float want
      | Instr.Fimm _ -> not (Types.is_float want)
    in
    let expect ?instr b what want v =
      if mismatch want v then
        match v with
        | Instr.Vreg id ->
          emit Error ~block:b ?instr "%s expects %s but %s is %s" what (Types.to_string want)
            (value_name id)
            (Types.to_string (Func.ty_of f id))
        | Instr.Imm _ ->
          emit Warning ~block:b ?instr "%s expects %s but got an integer immediate" what
            (Types.to_string want)
        | Instr.Fimm _ ->
          emit Error ~block:b ?instr "%s expects %s but got a float immediate" what
            (Types.to_string want)
    in
    Array.iter
      (fun (b : Block.t) ->
        Array.iter
          (fun (p : Instr.phi) ->
            Array.iter
              (fun (_, v) ->
                if mismatch p.ty v then
                  expect b.id (Printf.sprintf "phi %s" (value_name p.dst)) p.ty v)
              p.incoming)
          b.phis;
        Array.iteri
          (fun i ins ->
            let expect = expect ~instr:i b.id in
            match ins with
            | Instr.Binop { op = _; ty; a; b = v; _ } | Instr.OvfFlag { ty; a; b = v; _ } ->
              expect "arithmetic operand" ty a;
              expect "arithmetic operand" ty v
            | Instr.Fbinop { a; b = v; _ } ->
              expect "float operand" Types.F64 a;
              expect "float operand" Types.F64 v
            | Instr.Icmp { ty; a; b = v; _ } ->
              expect "comparison operand" ty a;
              expect "comparison operand" ty v
            | Instr.Fcmp { a; b = v; _ } ->
              expect "float comparison operand" Types.F64 a;
              expect "float comparison operand" Types.F64 v
            | Instr.Select { ty; cond; a; b = v; _ } ->
              expect "select condition" Types.I1 cond;
              expect "select operand" ty a;
              expect "select operand" ty v
            | Instr.Cast { from_ty; v; _ } -> expect "cast operand" from_ty v
            | Instr.Load { addr; _ } -> expect "load address" Types.Ptr addr
            | Instr.Store { ty; addr; v } ->
              expect "store address" Types.Ptr addr;
              expect "stored value" ty v
            | Instr.Gep { base; index; _ } -> (
              expect "gep base" Types.Ptr base;
              match index with
              | Instr.Vreg id -> (
                match ty_of id with
                | Some t when Types.is_float t ->
                  emit Error ~block:b.id ~instr:i "gep index %s has float type %s"
                    (value_name id) (Types.to_string t)
                | _ -> ())
              | Instr.Fimm _ ->
                emit Error ~block:b.id ~instr:i "gep index is a float immediate"
              | Instr.Imm _ -> ())
            | Instr.Call { args; arg_tys; _ } ->
              if Array.length args <> Array.length arg_tys then
                emit Error ~block:b.id ~instr:i "call has %d args but %d arg types"
                  (Array.length args) (Array.length arg_tys)
              else Array.iteri (fun k a -> expect "call argument" arg_tys.(k) a) args)
          b.instrs;
        match b.term with
        | Instr.CondBr { cond; _ } -> expect b.id "branch condition" Types.I1 cond
        | _ -> ())
      f.Func.blocks;
    if not !structure_ok then List.rev !diags
    else begin
      (* ---- phase 2: CFG coherence -------------------------------------- *)
      let preds = Cfg.predecessors f in
      Array.iter
        (fun (b : Block.t) ->
          Array.iter
            (fun (p : Instr.phi) ->
              let incoming_preds =
                Array.to_list p.incoming |> List.map fst |> List.sort compare
              in
              let actual = List.sort compare preds.(b.id) in
              if incoming_preds <> actual then
                emit Error ~block:b.id "phi %s: incoming %s but predecessors %s"
                  (value_name p.dst)
                  (String.concat "," (List.map string_of_int incoming_preds))
                  (String.concat "," (List.map string_of_int actual)))
            b.phis)
        f.Func.blocks;
      (* φ-to-φ reads within one block: the translator lowers φs to
         *sequential* copies at the end of each predecessor, so a φ
         whose incoming value is another φ of the same block would
         observe the copied (new) value instead of the parallel-copy
         (old) one — reject it as a translator-precondition break. *)
      Array.iter
        (fun (b : Block.t) ->
          let phi_dsts = Array.map (fun (p : Instr.phi) -> p.Instr.dst) b.phis in
          Array.iter
            (fun (p : Instr.phi) ->
              Array.iter
                (fun (pred, v) ->
                  match v with
                  | Instr.Vreg id
                    when id <> p.dst && Array.exists (Int.equal id) phi_dsts ->
                    emit Error ~block:b.id
                      "phi %s reads %s (a phi of the same block) on the edge from \
                       block %d: sequential φ copies cannot preserve parallel-copy \
                       semantics"
                      (value_name p.dst) (value_name id) pred
                  | _ -> ())
                p.incoming)
            b.phis)
        f.Func.blocks;
      (* Cross-successor φ copy hazard: the translator emits the copy
         sets of *all* successors at the end of a block before the
         jump. If a φ incoming value on the edge b→s is itself the
         destination of a φ in a sibling successor s', the s' copy has
         already overwritten it by the time the b→s copy reads it
         (e.g. a loop-exit φ reading a loop-header φ from the header's
         exit edge). *)
      Array.iter
        (fun (b : Block.t) ->
          let succs = Block.successors b in
          match succs with
          | [] | [ _ ] -> ()
          | _ ->
            (* successor φ dst -> owning block *)
            let dst_owner = Hashtbl.create 8 in
            List.iter
              (fun s ->
                Array.iter
                  (fun (p : Instr.phi) ->
                    Hashtbl.replace dst_owner p.Instr.dst s)
                  (Func.block f s).phis)
              succs;
            List.iter
              (fun s ->
                Array.iter
                  (fun (p : Instr.phi) ->
                    Array.iter
                      (fun (pred, v) ->
                        match v with
                        | Instr.Vreg id when pred = b.id && id <> p.dst -> (
                          match Hashtbl.find_opt dst_owner id with
                          | Some owner when owner <> s ->
                            emit Error ~block:b.id
                              "phi %s of block %d reads %s on the edge from block \
                               %d, but %s is a phi of sibling successor %d: its \
                               copy set clobbers the value before this edge's \
                               copies read it"
                              (value_name p.dst) s (value_name id) b.id
                              (value_name id) owner
                          | _ -> ())
                        | _ -> ())
                      p.incoming)
                  (Func.block f s).phis)
              succs)
        f.Func.blocks;
      (* reachability *)
      let reachable = Array.make n false in
      let rec mark b =
        if not reachable.(b) then begin
          reachable.(b) <- true;
          List.iter mark (Block.successors (Func.block f b))
        end
      in
      mark 0;
      Array.iteri
        (fun b r -> if not r then emit Warning ~block:b "block %d is unreachable" b)
        reachable;
      (* trap placement: overflow-guard branches should target
         abort-only blocks, or the translator's checked-arithmetic
         fusion (paper Section IV-F) silently degrades *)
      let abort_only b =
        let blk = Func.block f b in
        match blk.Block.term with
        | Instr.Abort _ ->
          Array.length blk.Block.phis = 0 && Array.length blk.Block.instrs = 0
        | _ -> false
      in
      (* each value's defining block, -1 for a parameter or an undefined
         value, and instruction, -1 for a φ *)
      let def_block = Array.make (Stdlib.max nv 1) (-1) in
      let def_instr = Array.make (Stdlib.max nv 1) (-1) in
      Array.iter
        (fun (b : Block.t) ->
          Array.iter
            (fun (p : Instr.phi) ->
              if p.dst >= 0 && p.dst < nv then begin
                def_block.(p.dst) <- b.id;
                def_instr.(p.dst) <- -1
              end)
            b.phis;
          Array.iteri
            (fun i ins ->
              match Instr.dst_of ins with
              | Some d when d >= 0 && d < nv ->
                def_block.(d) <- b.id;
                def_instr.(d) <- i
              | _ -> ())
            b.instrs)
        f.Func.blocks;
      Array.iter
        (fun (b : Block.t) ->
          match b.Block.term with
          | Instr.CondBr { cond = Instr.Vreg c; if_true; if_false } -> (
            let is_ovf =
              c >= 0 && c < nv
              && def_block.(c) >= 0
              && def_instr.(c) >= 0
              &&
              match (Func.block f def_block.(c)).Block.instrs.(def_instr.(c)) with
              | Instr.OvfFlag _ -> true
              | _ -> false
            in
            if is_ovf then
              let target_aborts t =
                match (Func.block f t).Block.term with Instr.Abort _ -> true | _ -> false
              in
              match
                if target_aborts if_true then Some if_true
                else if target_aborts if_false then Some if_false
                else None
              with
              | Some t when not (abort_only t) ->
                emit Warning ~block:b.id
                  "overflow trap block %d is not abort-only; checked-arithmetic \
                   fusion is disabled for this guard"
                  t
              | _ -> ())
          | _ -> ())
        f.Func.blocks;
      (* ---- phase 3: dominance ------------------------------------------ *)
      (* Dom.compute (and its idom-chain walks) assumes RPO numbering;
         check the cheap consequence of it first so a mis-laid-out
         function reports cleanly instead of diverging. *)
      let rpo_ok = ref true in
      for b = 1 to n - 1 do
        if reachable.(b) && not (List.exists (fun p -> p < b && reachable.(p)) preds.(b))
        then begin
          emit Error ~block:b
            "block %d is not RPO-numbered (no smaller-numbered reachable predecessor); \
             dominance checks skipped"
            b;
          rpo_ok := false
        end
      done;
      if !rpo_ok then begin
        let dom = Dom.compute f in
        (* [du] = does the definition of value [v] reach this use? *)
        let dominates_use ~same_block_ok v ~use_block ~use_instr =
          if v < 0 || v >= nv || def_block.(v) < 0 then
            true (* param, or undefined (already reported) *)
          else
            let db = def_block.(v) and di = def_instr.(v) in
            if db = use_block then
              if same_block_ok then true
              else di < use_instr (* φ defs have di = -1 and dominate all instrs *)
            else reachable.(db) && Dom.is_ancestor dom ~ancestor:db use_block
        in
        Array.iter
          (fun (b : Block.t) ->
            if reachable.(b.id) then begin
              Array.iteri
                (fun i ins ->
                  Instr.iter_operands
                    (fun v ->
                      match v with
                      | Instr.Vreg id
                        when not
                               (dominates_use ~same_block_ok:false id ~use_block:b.id
                                  ~use_instr:i) ->
                        emit Error ~block:b.id ~instr:i
                          "use of %s is not dominated by its definition" (value_name id)
                      | _ -> ())
                    ins)
                b.instrs;
              Analysis.term_uses b ~use:(fun v ->
                  match v with
                  | Instr.Vreg id
                    when not
                           (dominates_use ~same_block_ok:true id ~use_block:b.id
                              ~use_instr:max_int) ->
                    emit Error ~block:b.id
                      "terminator use of %s is not dominated by its definition"
                      (value_name id)
                  | _ -> ());
              (* a φ incoming value must dominate the *end of the edge's
                 source block* — that is where the copy executes *)
              Array.iter
                (fun (p : Instr.phi) ->
                  Array.iter
                    (fun (pred, v) ->
                      match v with
                      | Instr.Vreg id
                        when reachable.(pred)
                             && not
                                  (dominates_use ~same_block_ok:true id ~use_block:pred
                                     ~use_instr:max_int) ->
                        emit Error ~block:b.id
                          "phi %s: incoming %s does not dominate the end of \
                           predecessor block %d"
                          (value_name p.dst) (value_name id) pred
                      | _ -> ())
                    p.incoming)
                b.phis
            end)
          f.Func.blocks
      end;
      List.rev !diags
    end
  end

let run f =
  let errs = errors (diagnostics f) in
  if errs <> [] then raise (Ill_formed (report errs))

let check f = match run f with () -> Ok () | exception Ill_formed m -> Error m
