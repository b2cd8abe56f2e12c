type t = {
  name : string;
  params : Types.t array;
  mutable blocks : Block.t array;
  mutable value_ty : Types.t array;
  mutable n_values : int;
}

let create ~name ~params =
  let params = Array.of_list params in
  let n = Array.length params in
  let value_ty = Array.make (Stdlib.max 16 (2 * n)) Types.I64 in
  Array.blit params 0 value_ty 0 n;
  { name; params; blocks = [||]; value_ty; n_values = n }

let fresh_value t ty =
  let id = t.n_values in
  if id >= Array.length t.value_ty then begin
    let bigger = Array.make (2 * Array.length t.value_ty) Types.I64 in
    Array.blit t.value_ty 0 bigger 0 (Array.length t.value_ty);
    t.value_ty <- bigger
  end;
  t.value_ty.(id) <- ty;
  t.n_values <- id + 1;
  id

let ty_of t id =
  if id < 0 || id >= t.n_values then invalid_arg "Func.ty_of: unknown value";
  t.value_ty.(id)

let block t id = t.blocks.(id)

let n_blocks t = Array.length t.blocks

let iter_instrs t f =
  Array.iter (fun b -> Array.iter (fun i -> f b i) b.Block.instrs) t.blocks

let copy t =
  {
    t with
    blocks =
      Array.map
        (fun (b : Block.t) ->
          {
            b with
            Block.phis = Array.copy b.Block.phis;
            instrs = Array.copy b.Block.instrs;
          })
        t.blocks;
    value_ty = Array.copy t.value_ty;
  }

let n_instrs t =
  Array.fold_left
    (fun acc (b : Block.t) -> acc + Array.length b.phis + Array.length b.instrs + 1)
    0 t.blocks
