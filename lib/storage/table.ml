module A = Aeq_mem.Arena

type column = { name : string; dtype : Dtype.t; data : A.ptr }

type t = { name : string; n_rows : int; columns : column array }

let create _arena allocator ~name ~rows ~schema =
  let stride = 4 * Stdlib.max 1 rows in
  let base = A.alloc allocator (stride * List.length schema) in
  let columns =
    List.mapi (fun i (cname, dtype) -> { name = cname; dtype; data = base + (i * stride) }) schema
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
  Int64.of_int32 (A.get_i32 arena (t.columns.(col).data + (4 * row)))

type run = A.chunk * int

let column_run arena t col = A.chunk_of arena t.columns.(col).data
