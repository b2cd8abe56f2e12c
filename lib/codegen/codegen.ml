module P = Aeq_plan.Physical
module Sc = Aeq_plan.Scalar
module Dtype = Aeq_storage.Dtype
module Ast = Aeq_sql.Ast

type scope = { cache : (int * int, Instr.value) Hashtbl.t }

type ctx = {
  b : Builder.t;
  plan : P.t;
  layout : P.layout;
  state : Instr.value;
  tid : Instr.value;
  row : Instr.value;
  source_tref : int; (* tref scanned by this pipeline; -1 for agg scan *)
  bases : (int, Instr.value) Hashtbl.t; (* state slot -> base pointer *)
  mutable payloads : (int * (int * Instr.value)) list; (* tref -> (ht idx, entry value) *)
  mutable scopes : scope list;
  mutable cond_depth : int; (* >0 inside CASE arms: no caching *)
}

let i64 = Types.I64

let push_scope ctx = ctx.scopes <- { cache = Hashtbl.create 16 } :: ctx.scopes

let pop_scope ctx =
  match ctx.scopes with [] -> invalid_arg "Codegen: scope underflow" | _ :: rest -> ctx.scopes <- rest

let cache_find ctx key =
  let rec go = function
    | [] -> None
    | s :: rest -> (
      match Hashtbl.find_opt s.cache key with Some v -> Some v | None -> go rest)
  in
  go ctx.scopes

let cache_store ctx key v =
  if ctx.cond_depth = 0 then
    match ctx.scopes with [] -> () | s :: _ -> Hashtbl.replace s.cache key v

(* Base pointer for a state slot, loaded once in the entry block. *)
let base ctx slot =
  match Hashtbl.find_opt ctx.bases slot with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Codegen: slot %d not preloaded" slot)

(* A base-table cell is a 1-, 2- or 4-byte signed integer, the
   narrowest that holds its column's declared range (see
   [Aeq_storage.Table]), read sign-extended to i64. *)
let load_table_cell ctx ~tref ~col =
  let width = (fst ctx.plan.P.pl_trefs.(tref)).Aeq_storage.Table.columns.(col).width in
  let ty = match width with 1 -> Types.I8 | 2 -> Types.I16 | _ -> Types.I32 in
  let base = base ctx (P.slot_of_col ctx.layout ~tref ~col) in
  let addr = Builder.gep ctx.b ~base ~index:ctx.row ~scale:width ~offset:0 in
  let cell = Builder.load ctx.b ty addr in
  Builder.cast ctx.b Instr.Sext ~from_ty:ty ~to_ty:i64 cell

(* An aggregate-result cell is a full i64. *)
let load_agg_cell ctx slot =
  let base = base ctx slot in
  let addr = Builder.gep ctx.b ~base ~index:ctx.row ~scale:8 ~offset:0 in
  Builder.load ctx.b i64 addr

let gen_col ctx ~tref ~col =
  let key = (tref, col) in
  match cache_find ctx key with
  | Some v -> v
  | None ->
    let v =
      if tref = ctx.source_tref then load_table_cell ctx ~tref ~col
      else begin
        match List.assoc_opt tref ctx.payloads with
        | Some (ht_idx, entry) ->
          let spec = ctx.plan.P.pl_hts.(ht_idx) in
          let off =
            match (List.assoc_opt col spec.P.ht_payload, spec.P.ht_key) with
            | Some o, _ -> Aeq_rt.Hash_table.payload_offset + o
            (* the build key is the entry's key word, not a payload copy *)
            | None, Sc.Col { col = key_col; _ } when key_col = col ->
              Aeq_rt.Hash_table.key_offset
            | None, _ ->
              invalid_arg
                (Printf.sprintf "Codegen: t%d.c%d not in ht%d payload" tref col ht_idx)
          in
          let addr =
            Builder.gep ctx.b ~base:entry ~index:(Instr.Imm 0L) ~scale:0 ~offset:off
          in
          Builder.load ctx.b i64 addr
        | None ->
          invalid_arg (Printf.sprintf "Codegen: t%d not available at this point" tref)
      end
    in
    cache_store ctx key v;
    v

let gen_acol ctx idx =
  let key = (-2, idx) in
  match cache_find ctx key with
  | Some v -> v
  | None ->
    let v = load_agg_cell ctx (P.slot_of_agg_col ctx.layout idx) in
    cache_store ctx key v;
    v

let scale_imm = Instr.Imm (Int64.of_int Dtype.scale)

(* Booleans are I1 values (0/1). *)
let rec gen ctx (s : Sc.t) : Instr.value =
  match s with
  | Sc.Col { tref; col; _ } -> gen_col ctx ~tref ~col
  | Sc.Acol { idx; _ } -> gen_acol ctx idx
  | Sc.Const (n, _) -> Instr.Imm n
  | Sc.Year e ->
    let v = gen ctx e in
    Builder.call ctx.b i64 "year_of" [ (v, i64) ]
  | Sc.Dict_match (id, e) ->
    let code = gen ctx e in
    let r =
      Builder.call ctx.b i64 "dict_match" [ (Instr.Imm (Int64.of_int id), i64); (code, i64) ]
    in
    Builder.cast ctx.b Instr.Trunc ~from_ty:i64 ~to_ty:Types.I1 r
  | Sc.Not e ->
    let v = gen ctx e in
    Builder.binop ctx.b Instr.Xor Types.I1 v (Instr.Imm 1L)
  | Sc.Bin (op, a, b, _) -> (
    let da = Sc.dtype a and db = Sc.dtype b in
    let va = gen ctx a in
    let vb = gen ctx b in
    match op with
    | Ast.And -> Builder.binop ctx.b Instr.And Types.I1 va vb
    | Ast.Or -> Builder.binop ctx.b Instr.Or Types.I1 va vb
    | Ast.Add -> Builder.checked ctx.b Instr.OAdd i64 va vb
    | Ast.Sub -> Builder.checked ctx.b Instr.OSub i64 va vb
    | Ast.Mul ->
      let m = Builder.checked ctx.b Instr.OMul i64 va vb in
      if Dtype.equal da Dtype.Decimal && Dtype.equal db Dtype.Decimal then
        Builder.binop ctx.b Instr.Div i64 m scale_imm
      else m
    | Ast.Div ->
      if Dtype.equal db Dtype.Decimal then begin
        let scaled = Builder.checked ctx.b Instr.OMul i64 va scale_imm in
        Builder.binop ctx.b Instr.Div i64 scaled vb
      end
      else Builder.binop ctx.b Instr.Div i64 va vb
    | Ast.Eq -> Builder.icmp ctx.b Instr.Eq i64 va vb
    | Ast.Ne -> Builder.icmp ctx.b Instr.Ne i64 va vb
    | Ast.Lt -> Builder.icmp ctx.b Instr.Slt i64 va vb
    | Ast.Le -> Builder.icmp ctx.b Instr.Sle i64 va vb
    | Ast.Gt -> Builder.icmp ctx.b Instr.Sgt i64 va vb
    | Ast.Ge -> Builder.icmp ctx.b Instr.Sge i64 va vb)
  | Sc.Case (whens, els, _) ->
    (* chained conditional blocks merging in a φ *)
    let join = Builder.new_block ctx.b in
    let depth0 = ctx.cond_depth in
    ctx.cond_depth <- depth0 + 1;
    let incoming = ref [] in
    let rec arms = function
      | [] ->
        let v = gen ctx els in
        incoming := (Builder.current_block ctx.b, v) :: !incoming;
        Builder.br ctx.b join
      | (c, v) :: rest ->
        let cond = gen ctx c in
        let arm = Builder.new_block ctx.b in
        let next = Builder.new_block ctx.b in
        Builder.condbr ctx.b cond ~if_true:arm ~if_false:next;
        Builder.switch_to ctx.b arm;
        let value = gen ctx v in
        incoming := (Builder.current_block ctx.b, value) :: !incoming;
        Builder.br ctx.b join;
        Builder.switch_to ctx.b next;
        arms rest
    in
    arms whens;
    ctx.cond_depth <- depth0;
    Builder.switch_to ctx.b join;
    Builder.phi ctx.b i64 (List.rev !incoming)

(* Evaluate a boolean filter; on failure jump to [fail]; continue in a
   fresh block on success. *)
let gen_filter ctx filter ~fail =
  let v = gen ctx filter in
  let pass = Builder.new_block ctx.b in
  Builder.condbr ctx.b v ~if_true:pass ~if_false:fail;
  Builder.switch_to ctx.b pass

let gen_sink ctx (sink : P.sink) =
  match sink with
  | P.S_build { ht; key; payload } ->
    let k = gen ctx key in
    let p =
      Builder.call ctx.b i64 "ht_insert"
        [ (Instr.Imm (Int64.of_int ht), i64); (ctx.tid, i64); (k, i64) ]
    in
    List.iter
      (fun (off, v) ->
        let value = gen ctx v in
        let addr = Builder.gep ctx.b ~base:p ~index:(Instr.Imm 0L) ~scale:0 ~offset:off in
        Builder.store ctx.b i64 ~addr value)
      payload
  | P.S_agg { agg; keys; accs } ->
    let k1 = match keys with k :: _ -> gen ctx k | [] -> Instr.Imm 0L in
    let k2 = match keys with _ :: k :: _ -> gen ctx k | _ -> Instr.Imm 0L in
    let row =
      Builder.call ctx.b i64 "agg_get"
        [ (Instr.Imm (Int64.of_int agg), i64); (ctx.tid, i64); (k1, i64); (k2, i64) ]
    in
    List.iteri
      (fun i (kind, arg) ->
        let addr = Builder.gep ctx.b ~base:row ~index:(Instr.Imm 0L) ~scale:0 ~offset:(8 * i) in
        let cur = Builder.load ctx.b i64 addr in
        let next =
          match (kind, arg) with
          | Aeq_rt.Agg.Count, _ -> Builder.binop ctx.b Instr.Add i64 cur (Instr.Imm 1L)
          | Aeq_rt.Agg.Sum, Some s ->
            let v = gen ctx s in
            Builder.checked ctx.b Instr.OAdd i64 cur v
          | Aeq_rt.Agg.Min, Some s ->
            let v = gen ctx s in
            let c = Builder.icmp ctx.b Instr.Slt i64 v cur in
            Builder.select ctx.b i64 c v cur
          | Aeq_rt.Agg.Max, Some s ->
            let v = gen ctx s in
            let c = Builder.icmp ctx.b Instr.Sgt i64 v cur in
            Builder.select ctx.b i64 c v cur
          | (Aeq_rt.Agg.Sum | Aeq_rt.Agg.Min | Aeq_rt.Agg.Max), None ->
            invalid_arg "Codegen: aggregate without argument"
        in
        Builder.store ctx.b i64 ~addr next)
      accs
  | P.S_out { out; exprs } ->
    let r =
      Builder.call ctx.b i64 "out_row"
        [ (Instr.Imm (Int64.of_int out), i64); (ctx.tid, i64) ]
    in
    List.iteri
      (fun i e ->
        let v = gen ctx e in
        let addr = Builder.gep ctx.b ~base:r ~index:(Instr.Imm 0L) ~scale:0 ~offset:(8 * i) in
        Builder.store ctx.b i64 ~addr v)
      exprs

(* Nested probe loops, innermost runs the sink. [continue_target] is
   where a rejected/finished row goes (enclosing probe's next-match
   block or the row-advance block). *)
let rec gen_probes ctx probes ~continue_target ~sink =
  match probes with
  | [] -> gen_sink ctx sink
  | (probe : P.probe) :: rest ->
    let key = gen ctx probe.P.pr_key in
    let ht_imm = Instr.Imm (Int64.of_int probe.P.pr_ht) in
    let first = Builder.call ctx.b i64 "ht_lookup" [ (ht_imm, i64); (key, i64) ] in
    let match_head = Builder.new_block ctx.b in
    let match_body = Builder.new_block ctx.b in
    let match_cont = Builder.new_block ctx.b in
    let from = Builder.current_block ctx.b in
    Builder.br ctx.b match_head;
    Builder.switch_to ctx.b match_head;
    let entry = Builder.phi ctx.b i64 [ (from, first) ] in
    let is_null = Builder.icmp ctx.b Instr.Eq i64 entry (Instr.Imm 0L) in
    Builder.condbr ctx.b is_null ~if_true:continue_target ~if_false:match_body;
    Builder.switch_to ctx.b match_body;
    push_scope ctx;
    ctx.payloads <- (probe.P.pr_tref, (probe.P.pr_ht, entry)) :: ctx.payloads;
    List.iter (fun f -> gen_filter ctx f ~fail:match_cont) probe.P.pr_filters;
    gen_probes ctx rest ~continue_target:match_cont ~sink;
    if not (Builder.terminated ctx.b) then Builder.br ctx.b match_cont;
    ctx.payloads <- List.remove_assoc probe.P.pr_tref ctx.payloads;
    pop_scope ctx;
    Builder.switch_to ctx.b match_cont;
    let next = Builder.call ctx.b i64 "ht_next" [ (ht_imm, i64); (entry, i64) ] in
    Builder.add_phi_incoming ctx.b ~block:match_head ~dst:entry
      ~pred:(Builder.current_block ctx.b)
      next;
    Builder.br ctx.b match_head

let collect_slots plan layout ~pipeline:(p : P.pipeline) =
  (* every state slot the pipeline reads: source columns + agg columns *)
  let slots = Hashtbl.create 32 in
  let source_tref =
    match p.P.p_source with P.Src_scan { tref } -> tref | P.Src_agg_scan _ -> -1
  in
  let rec scan (s : Sc.t) =
    match s with
    | Sc.Col { tref; col; _ } ->
      if tref = source_tref then
        Hashtbl.replace slots (P.slot_of_col layout ~tref ~col) ()
    | Sc.Acol { idx; _ } -> Hashtbl.replace slots (P.slot_of_agg_col layout idx) ()
    | Sc.Const _ -> ()
    | Sc.Bin (_, a, b, _) ->
      scan a;
      scan b
    | Sc.Year e | Sc.Dict_match (_, e) | Sc.Not e -> scan e
    | Sc.Case (whens, els, _) ->
      List.iter
        (fun (c, v) ->
          scan c;
          scan v)
        whens;
      scan els
  in
  List.iter scan p.P.p_scan_filters;
  List.iter
    (fun (pr : P.probe) ->
      scan pr.P.pr_key;
      List.iter scan pr.P.pr_filters)
    p.P.p_probes;
  (match p.P.p_sink with
  | P.S_build { key; payload; _ } ->
    scan key;
    List.iter (fun (_, v) -> scan v) payload
  | P.S_agg { keys; accs; _ } ->
    List.iter scan keys;
    List.iter (fun (_, a) -> match a with Some s -> scan s | None -> ()) accs
  | P.S_out { exprs; _ } -> List.iter scan exprs);
  ignore plan;
  Hashtbl.fold (fun s () acc -> s :: acc) slots [] |> List.sort compare

let pipeline_worker plan layout ~pipeline =
  let p = List.nth plan.P.pl_pipelines pipeline in
  let b =
    Builder.create
      ~name:(Printf.sprintf "worker_%d_%s" pipeline (String.map (fun c -> if c = ' ' then '_' else c) p.P.p_name))
      ~params:[ Types.Ptr; Types.I64; Types.I64; Types.I64 ]
  in
  let source_tref =
    match p.P.p_source with P.Src_scan { tref } -> tref | P.Src_agg_scan _ -> -1
  in
  let state = Builder.param b 0 in
  let begin_ = Builder.param b 1 in
  let end_ = Builder.param b 2 in
  let tid = Builder.param b 3 in
  (* entry: preload base pointers *)
  let bases = Hashtbl.create 32 in
  let slots = collect_slots plan layout ~pipeline:p in
  List.iter
    (fun slot ->
      let addr = Builder.gep b ~base:state ~index:(Instr.Imm 0L) ~scale:0 ~offset:(8 * slot) in
      Hashtbl.replace bases slot (Builder.load b Types.I64 addr))
    slots;
  let head = Builder.new_block b in
  let body = Builder.new_block b in
  let row_next = Builder.new_block b in
  let exit = Builder.new_block b in
  let entry_block = Builder.current_block b in
  Builder.br b head;
  Builder.switch_to b head;
  let row = Builder.phi b Types.I64 [ (entry_block, begin_) ] in
  let more = Builder.icmp b Instr.Slt Types.I64 row end_ in
  Builder.condbr b more ~if_true:body ~if_false:exit;
  (* row_next: advance *)
  Builder.switch_to b row_next;
  let row' = Builder.binop b Instr.Add Types.I64 row (Instr.Imm 1L) in
  Builder.br b head;
  Builder.add_phi_incoming b ~block:head ~dst:row ~pred:row_next row';
  (* exit *)
  Builder.switch_to b exit;
  Builder.ret_void b;
  (* body *)
  Builder.switch_to b body;
  let ctx =
    {
      b;
      plan;
      layout;
      state;
      tid;
      row;
      source_tref;
      bases;
      payloads = [];
      scopes = [];
      cond_depth = 0;
    }
  in
  push_scope ctx;
  List.iter (fun f -> gen_filter ctx f ~fail:row_next) p.P.p_scan_filters;
  gen_probes ctx p.P.p_probes ~continue_target:row_next ~sink:p.P.p_sink;
  if not (Builder.terminated ctx.b) then Builder.br ctx.b row_next;
  let f = Builder.finish b in
  Layout.normalize f;
  Verify.run f;
  f

let all_workers plan layout =
  List.mapi (fun i _ -> pipeline_worker plan layout ~pipeline:i) plan.P.pl_pipelines
