type t = {
  arena : Aeq_mem.Arena.t;
  dict : Aeq_rt.Dict.t;
  allocator : Aeq_mem.Arena.allocator;
  tables : (string, Table.t) Hashtbl.t;
}

let create () =
  let arena = Aeq_mem.Arena.create () in
  {
    arena;
    dict = Aeq_rt.Dict.create ();
    allocator = Aeq_mem.Arena.allocator arena;
    tables = Hashtbl.create 16;
  }

let arena t = t.arena

let dict t = t.dict

let allocator t = t.allocator

let add_table t tbl = Hashtbl.replace t.tables tbl.Table.name tbl

let table t name =
  match Hashtbl.find_opt t.tables (String.lowercase_ascii name) with
  | Some tbl -> tbl
  | None -> (
    match Hashtbl.find_opt t.tables name with Some tbl -> tbl | None -> raise Not_found)

let tables t = Hashtbl.fold (fun _ tbl acc -> tbl :: acc) t.tables []
