module A = Aeq_mem.Arena

type column = { name : string; dtype : Dtype.t; lo : int; hi : int; width : int; data : A.ptr }

type t = { name : string; n_rows : int; columns : column array }

let width_of_range ~lo ~hi =
  if lo > hi then invalid_arg (Printf.sprintf "Table: empty range %d..%d" lo hi)
  else if lo >= -0x80 && hi <= 0x7f then 1
  else if lo >= -0x8000 && hi <= 0x7fff then 2
  else if lo >= -0x8000_0000 && hi <= 0x7fff_ffff then 4
  else invalid_arg (Printf.sprintf "Table: range %d..%d does not fit a 4-byte cell" lo hi)

let create allocator ~name ~rows ~schema =
  let widths = List.map (fun (_, _, (lo, hi)) -> width_of_range ~lo ~hi) schema in
  let bytes w = ((w * Stdlib.max 1 rows) + 7) land lnot 7 in
  let base = A.alloc allocator (List.fold_left (fun acc w -> acc + bytes w) 0 widths) in
  let next = ref base in
  let columns =
    List.map2
      (fun (cname, dtype, (lo, hi)) width ->
        let data = !next in
        next := data + bytes width;
        { name = cname; dtype; lo; hi; width; data })
      schema widths
    |> Array.of_list
  in
  { name; n_rows = rows; columns }

let column t cname =
  match Array.find_opt (fun (c : column) -> String.equal c.name cname) t.columns with
  | Some c -> c
  | None -> raise Not_found

let column_index t cname =
  let rec go i =
    if i >= Array.length t.columns then raise Not_found
    else if String.equal t.columns.(i).name cname then i
    else go (i + 1)
  in
  go 0

let get arena t ~col ~row =
  let c = t.columns.(col) in
  let p = c.data + (c.width * row) in
  match c.width with
  | 1 -> Int64.of_int ((A.get_i8 arena p lxor 0x80) - 0x80)
  | 2 -> Int64.of_int ((A.get_i16 arena p lxor 0x8000) - 0x8000)
  | _ -> Int64.of_int32 (A.get_i32 arena p)

type run = { chunk : A.chunk; offset : int; width : int; lo : int; hi : int }

let column_run arena t col =
  let c = t.columns.(col) in
  let chunk, offset = A.chunk_of arena c.data in
  { chunk; offset; width = c.width; lo = c.lo; hi = c.hi }
