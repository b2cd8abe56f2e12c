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

(* The value an instruction defines and its type, read from the
   instruction: [Instr.dst_of] and [Instr.result_ty] would allocate an
   option for every instruction the verifier looks at. *)
let has_result = function Instr.Store _ | Instr.Call { dst = None; _ } -> false | _ -> true

let result_dst = function
  | Instr.Binop { dst; _ }
  | Instr.OvfFlag { dst; _ }
  | Instr.Fbinop { dst; _ }
  | Instr.Icmp { dst; _ }
  | Instr.Fcmp { dst; _ }
  | Instr.Select { dst; _ }
  | Instr.Cast { dst; _ }
  | Instr.Load { dst; _ }
  | Instr.Gep { dst; _ }
  | Instr.Call { dst = Some (dst, _); _ } ->
    dst
  | Instr.Store _ | Instr.Call { dst = None; _ } -> invalid_arg "Verify.result_dst"

let result_type = function
  | Instr.Binop { ty; _ }
  | Instr.Select { ty; _ }
  | Instr.Load { ty; _ }
  | Instr.Call { dst = Some (_, ty); _ } ->
    ty
  | Instr.OvfFlag _ | Instr.Icmp _ | Instr.Fcmp _ -> Types.I1
  | Instr.Fbinop _ -> Types.F64
  | Instr.Cast { to_ty; _ } -> to_ty
  | Instr.Gep _ -> Types.Ptr
  | Instr.Store _ | Instr.Call { dst = None; _ } -> invalid_arg "Verify.result_type"

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
        let instrs = b.instrs in
        for i = 0 to Array.length instrs - 1 do
          if has_result instrs.(i) then define b.id ~instr:i (result_dst instrs.(i))
        done)
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
    (* The per-operand checks are one closure each, reading the block
       and instruction they check from [at_block] and [at_instr], not
       a closure allocated per instruction. *)
    let at_block = ref 0 and at_instr = ref 0 in
    let check_operand v =
      if undefined v then check_value ~instr:!at_instr !at_block "operand" v
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
        at_block := b.id;
        let instrs = b.instrs in
        for i = 0 to Array.length instrs - 1 do
          at_instr := i;
          Instr.iter_operands check_operand instrs.(i)
        done;
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
    let in_range id = id >= 0 && id < nv in
    Array.iter
      (fun (b : Block.t) ->
        Array.iter
          (fun (p : Instr.phi) ->
            if in_range p.dst && not (Types.equal (Func.ty_of f p.dst) p.ty) then
              emit Error ~block:b.id "phi %s declared %s but typed %s" (value_name p.dst)
                (Types.to_string (Func.ty_of f p.dst))
                (Types.to_string p.ty))
          b.phis;
        let instrs = b.instrs in
        for i = 0 to Array.length instrs - 1 do
          let ins = instrs.(i) in
          if has_result ins then begin
            let d = result_dst ins and ty = result_type ins in
            if in_range d && not (Types.equal (Func.ty_of f d) ty) then
              emit Error ~block:b.id ~instr:i "value %s declared %s but instruction yields %s"
                (value_name d)
                (Types.to_string (Func.ty_of f d))
                (Types.to_string ty)
          end
        done)
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
    (* [instr] is the instruction's index, -1 for a φ or a terminator *)
    let expect b instr what want v =
      if mismatch want v then
        let instr = if instr < 0 then None else Some instr in
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
                  expect b.id (-1) (Printf.sprintf "phi %s" (value_name p.dst)) p.ty v)
              p.incoming)
          b.phis;
        let instrs = b.instrs in
        for i = 0 to Array.length instrs - 1 do
          match instrs.(i) with
          | Instr.Binop { op = _; ty; a; b = v; _ } | Instr.OvfFlag { ty; a; b = v; _ } ->
            expect b.id i "arithmetic operand" ty a;
            expect b.id i "arithmetic operand" ty v
          | Instr.Fbinop { a; b = v; _ } ->
            expect b.id i "float operand" Types.F64 a;
            expect b.id i "float operand" Types.F64 v
          | Instr.Icmp { ty; a; b = v; _ } ->
            expect b.id i "comparison operand" ty a;
            expect b.id i "comparison operand" ty v
          | Instr.Fcmp { a; b = v; _ } ->
            expect b.id i "float comparison operand" Types.F64 a;
            expect b.id i "float comparison operand" Types.F64 v
          | Instr.Select { ty; cond; a; b = v; _ } ->
            expect b.id i "select condition" Types.I1 cond;
            expect b.id i "select operand" ty a;
            expect b.id i "select operand" ty v
          | Instr.Cast { from_ty; v; _ } -> expect b.id i "cast operand" from_ty v
          | Instr.Load { addr; _ } -> expect b.id i "load address" Types.Ptr addr
          | Instr.Store { ty; addr; v } ->
            expect b.id i "store address" Types.Ptr addr;
            expect b.id i "stored value" ty v
          | Instr.Gep { base; index; _ } -> (
            expect b.id i "gep base" Types.Ptr base;
            match index with
            | Instr.Vreg id when in_range id && Types.is_float (Func.ty_of f id) ->
              emit Error ~block:b.id ~instr:i "gep index %s has float type %s" (value_name id)
                (Types.to_string (Func.ty_of f id))
            | Instr.Fimm _ -> emit Error ~block:b.id ~instr:i "gep index is a float immediate"
            | Instr.Vreg _ | Instr.Imm _ -> ())
          | Instr.Call { args; arg_tys; _ } ->
            if Array.length args <> Array.length arg_tys then
              emit Error ~block:b.id ~instr:i "call has %d args but %d arg types"
                (Array.length args) (Array.length arg_tys)
            else
              for k = 0 to Array.length args - 1 do
                expect b.id i "call argument" arg_tys.(k) args.(k)
              done
        done;
        match b.term with
        | Instr.CondBr { cond; _ } -> expect b.id (-1) "branch condition" Types.I1 cond
        | _ -> ())
      f.Func.blocks;
    if not !structure_ok then List.rev !diags
    else begin
      (* ---- phase 2: CFG coherence -------------------------------------- *)
      let preds = Cfg.predecessors f in
      Array.iter
        (fun (b : Block.t) ->
          if Array.length b.phis > 0 then begin
            let actual = List.sort compare preds.(b.id) in
            Array.iter
              (fun (p : Instr.phi) ->
                let incoming_preds =
                  Array.to_list p.incoming |> List.map fst |> List.sort compare
                in
                if incoming_preds <> actual then
                  emit Error ~block:b.id "phi %s: incoming %s but predecessors %s"
                    (value_name p.dst)
                    (String.concat "," (List.map string_of_int incoming_preds))
                    (String.concat "," (List.map string_of_int actual)))
              b.phis
          end)
        f.Func.blocks;
      (* φ-to-φ reads within one block: the translator lowers φs to
         *sequential* copies at the end of each predecessor, so a φ
         whose incoming value is another φ of the same block would
         observe the copied (new) value instead of the parallel-copy
         (old) one — reject it as a translator-precondition break. *)
      (* [phi_owner] maps the dst of each φ of the blocks being
         checked to its block, and every other value to -1 *)
      let phi_owner = Array.make (Stdlib.max nv 1) (-1) in
      let own s owner =
        let phis = (Func.block f s).phis in
        for k = 0 to Array.length phis - 1 do
          let d = phis.(k).Instr.dst in
          if in_range d then phi_owner.(d) <- owner
        done
      in
      (* whether [id] is the dst of a φ of block [s]; an out-of-range
         [id] (already reported) is looked up in [s]'s φs *)
      let phi_of s id =
        if in_range id then phi_owner.(id) = s
        else Array.exists (fun (p : Instr.phi) -> p.Instr.dst = id) (Func.block f s).phis
      in
      Array.iter
        (fun (b : Block.t) ->
          let phis = b.phis in
          if Array.length phis > 0 then begin
            own b.id b.id;
            for k = 0 to Array.length phis - 1 do
              let p = phis.(k) in
              for j = 0 to Array.length p.incoming - 1 do
                match p.incoming.(j) with
                | pred, Instr.Vreg id when id <> p.dst && phi_of b.id id ->
                  emit Error ~block:b.id
                    "phi %s reads %s (a phi of the same block) on the edge from block \
                     %d: sequential φ copies cannot preserve parallel-copy semantics"
                    (value_name p.dst) (value_name id) pred
                | _ -> ()
              done
            done;
            own b.id (-1)
          end)
        f.Func.blocks;
      (* Cross-successor φ copy hazard: the translator emits the copy
         sets of *all* successors at the end of a block before the
         jump. If a φ incoming value on the edge b→s is itself the
         destination of a φ in a sibling successor s', the s' copy has
         already overwritten it by the time the b→s copy reads it
         (e.g. a loop-exit φ reading a loop-header φ from the header's
         exit edge). *)
      (* [phi_owner] holds a conditional branch's two successors' φs
         while the branch is checked, the false successor's written
         last *)
      let owner_of id ~if_true ~if_false =
        if in_range id then phi_owner.(id)
        else if phi_of if_false id then if_false
        else if phi_of if_true id then if_true
        else -1
      in
      let check_edge src s ~if_true ~if_false =
        let phis = (Func.block f s).phis in
        for k = 0 to Array.length phis - 1 do
          let p = phis.(k) in
          for j = 0 to Array.length p.incoming - 1 do
            match p.incoming.(j) with
            | pred, Instr.Vreg id when pred = src && id <> p.dst ->
              let owner = owner_of id ~if_true ~if_false in
              if owner >= 0 && owner <> s then
                emit Error ~block:src
                  "phi %s of block %d reads %s on the edge from block %d, but %s is a \
                   phi of sibling successor %d: its copy set clobbers the value \
                   before this edge's copies read it"
                  (value_name p.dst) s (value_name id) src (value_name id) owner
            | _ -> ()
          done
        done
      in
      Array.iter
        (fun (b : Block.t) ->
          match b.term with
          | Instr.CondBr { if_true; if_false; _ } ->
            own if_true if_true;
            own if_false if_false;
            check_edge b.id if_true ~if_true ~if_false;
            check_edge b.id if_false ~if_true ~if_false;
            own if_true (-1);
            own if_false (-1)
          | Instr.Br _ | Instr.Ret _ | Instr.Abort _ -> ())
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
          let instrs = b.instrs in
          for i = 0 to Array.length instrs - 1 do
            if has_result instrs.(i) then begin
              let d = result_dst instrs.(i) in
              if in_range d then begin
                def_block.(d) <- b.id;
                def_instr.(d) <- i
              end
            end
          done)
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
        let check_use v =
          match v with
          | Instr.Vreg id
            when not
                   (dominates_use ~same_block_ok:false id ~use_block:!at_block
                      ~use_instr:!at_instr) ->
            emit Error ~block:!at_block ~instr:!at_instr
              "use of %s is not dominated by its definition" (value_name id)
          | _ -> ()
        in
        let check_term_use v =
          match v with
          | Instr.Vreg id
            when not
                   (dominates_use ~same_block_ok:true id ~use_block:!at_block
                      ~use_instr:max_int) ->
            emit Error ~block:!at_block
              "terminator use of %s is not dominated by its definition" (value_name id)
          | _ -> ()
        in
        Array.iter
          (fun (b : Block.t) ->
            if reachable.(b.id) then begin
              at_block := b.id;
              let instrs = b.instrs in
              for i = 0 to Array.length instrs - 1 do
                at_instr := i;
                Instr.iter_operands check_use instrs.(i)
              done;
              Analysis.term_uses b ~use:check_term_use;
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
