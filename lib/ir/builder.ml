(* A φ under construction: incoming edges are consed on, so completing a
   loop back edge is O(1) instead of copying the edge array. *)
type pending_phi = {
  ty : Types.t;
  dst : int;
  mutable rev_incoming : (int * Instr.value) list;
}

type bb = {
  id : int;
  mutable rev_phis : pending_phi list;
  mutable rev_instrs : Instr.t list;
  mutable term : Instr.terminator option;
}

type t = {
  func : Func.t;
  mutable bbs : bb array;
  mutable n_bbs : int;
  mutable cursor : int;
  mutable trap_block : int option; (* shared overflow-trap block *)
}

let create ~name ~params =
  let func = Func.create ~name ~params in
  let entry = { id = 0; rev_phis = []; rev_instrs = []; term = None } in
  { func; bbs = Array.make 8 entry; n_bbs = 1; cursor = 0; trap_block = None }

let param t i =
  if i < 0 || i >= Array.length t.func.Func.params then invalid_arg "Builder.param";
  Instr.Vreg i

let new_block t =
  let id = t.n_bbs in
  if id >= Array.length t.bbs then begin
    let bigger = Array.make (2 * Array.length t.bbs) t.bbs.(0) in
    Array.blit t.bbs 0 bigger 0 t.n_bbs;
    t.bbs <- bigger
  end;
  t.bbs.(id) <- { id; rev_phis = []; rev_instrs = []; term = None };
  t.n_bbs <- id + 1;
  id

let switch_to t id =
  if id < 0 || id >= t.n_bbs then invalid_arg "Builder.switch_to";
  t.cursor <- id

let current_block t = t.cursor

let cur t = t.bbs.(t.cursor)

let emit t i =
  let b = cur t in
  if b.term <> None then invalid_arg ("Builder: emitting into terminated block in " ^ t.func.Func.name);
  b.rev_instrs <- i :: b.rev_instrs

let define t ty = Func.fresh_value t.func ty

let binop t op ty a b =
  let dst = define t ty in
  emit t (Instr.Binop { op; ty; dst; a; b });
  Instr.Vreg dst

let fbinop t op a b =
  let dst = define t Types.F64 in
  emit t (Instr.Fbinop { op; dst; a; b });
  Instr.Vreg dst

let icmp t op ty a b =
  let dst = define t Types.I1 in
  emit t (Instr.Icmp { op; ty; dst; a; b });
  Instr.Vreg dst

let fcmp t op a b =
  let dst = define t Types.I1 in
  emit t (Instr.Fcmp { op; dst; a; b });
  Instr.Vreg dst

let select t ty cond a b =
  let dst = define t ty in
  emit t (Instr.Select { ty; dst; cond; a; b });
  Instr.Vreg dst

let cast t op ~from_ty ~to_ty v =
  let dst = define t to_ty in
  emit t (Instr.Cast { op; from_ty; to_ty; dst; v });
  Instr.Vreg dst

let load t ty addr =
  let dst = define t ty in
  emit t (Instr.Load { ty; dst; addr });
  Instr.Vreg dst

let store t ty ~addr v = emit t (Instr.Store { ty; addr; v })

let gep t ~base ~index ~scale ~offset =
  let dst = define t Types.Ptr in
  emit t (Instr.Gep { dst; base; index; scale; offset });
  Instr.Vreg dst

let call t ty sym args =
  let dst = define t ty in
  let argv = Array.of_list (List.map fst args) in
  let tys = Array.of_list (List.map snd args) in
  emit t (Instr.Call { dst = Some (dst, ty); sym; args = argv; arg_tys = tys });
  Instr.Vreg dst

let call_void t sym args =
  let argv = Array.of_list (List.map fst args) in
  let tys = Array.of_list (List.map snd args) in
  emit t (Instr.Call { dst = None; sym; args = argv; arg_tys = tys })

let phi t ty incoming =
  let dst = define t ty in
  let b = cur t in
  b.rev_phis <- { ty; dst; rev_incoming = List.rev incoming } :: b.rev_phis;
  Instr.Vreg dst

let add_phi_incoming t ~block ~dst ~pred v =
  let dst_id = match dst with Instr.Vreg id -> id | _ -> invalid_arg "add_phi_incoming" in
  List.iter
    (fun p -> if p.dst = dst_id then p.rev_incoming <- (pred, v) :: p.rev_incoming)
    t.bbs.(block).rev_phis

let set_term t term =
  let b = cur t in
  if b.term <> None then invalid_arg ("Builder: block already terminated in " ^ t.func.Func.name);
  b.term <- Some term

let br t target = set_term t (Instr.Br target)

let condbr t cond ~if_true ~if_false = set_term t (Instr.CondBr { cond; if_true; if_false })

let ret t v = set_term t (Instr.Ret (Some v))

let ret_void t = set_term t (Instr.Ret None)

let abort_ t msg = set_term t (Instr.Abort msg)

let terminated t = (cur t).term <> None

let trap_block t =
  match t.trap_block with
  | Some id -> id
  | None ->
    let saved = t.cursor in
    let id = new_block t in
    switch_to t id;
    abort_ t "integer overflow";
    switch_to t saved;
    t.trap_block <- Some id;
    id

let checked t op ty a b =
  let bop =
    match op with Instr.OAdd -> Instr.Add | Instr.OSub -> Instr.Sub | Instr.OMul -> Instr.Mul
  in
  let result = binop t bop ty a b in
  let flag_dst = define t Types.I1 in
  emit t (Instr.OvfFlag { op; ty; dst = flag_dst; a; b });
  let trap = trap_block t in
  let cont = new_block t in
  condbr t (Instr.Vreg flag_dst) ~if_true:trap ~if_false:cont;
  switch_to t cont;
  result

let finish t =
  let blocks =
    Array.init t.n_bbs (fun i ->
        let b = t.bbs.(i) in
        let term =
          match b.term with
          | Some term -> term
          | None -> invalid_arg (Printf.sprintf "Builder.finish: block %d of %s not terminated" i t.func.Func.name)
        in
        Block.make ~id:i
          ~phis:
            (List.rev_map
               (fun p ->
                 { Instr.ty = p.ty; dst = p.dst; incoming = Array.of_list (List.rev p.rev_incoming) })
               b.rev_phis)
          ~instrs:(List.rev b.rev_instrs)
          ~term)
  in
  t.func.Func.blocks <- blocks;
  t.func
