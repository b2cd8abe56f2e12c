(** In-memory columnar tables over the arena.

    Columns are dense i64 arrays; pointers into them are handed to
    generated code through the query-state area. *)

type column = { name : string; dtype : Dtype.t; data : Aeq_mem.Arena.ptr }

type t = {
  name : string;
  n_rows : int;
  columns : column array;
}

val create :
  Aeq_mem.Arena.t ->
  Aeq_mem.Arena.allocator ->
  name:string ->
  rows:int ->
  schema:(string * Dtype.t) list ->
  t

val column : t -> string -> column
(** @raise Not_found *)

val column_index : t -> string -> int

val get : Aeq_mem.Arena.t -> t -> col:int -> row:int -> int64

val column_run : Aeq_mem.Arena.t -> t -> int -> Bytes.t * int
(** [column_run arena t col] is the buffer holding column [col] and
    the byte offset of its row 0 in it. {!Aeq_mem.Arena.alloc} never
    splits an allocation across chunks, so the whole column is one
    contiguous run: row [r] is the native-endian int64 at
    [offset + 8 * r]. Bulk loaders write cells there with a local
    [Bytes.set_int64_ne], which keeps the value unboxed where a
    per-cell call into another module would box it. *)

val of_columns :
  name:string -> n_rows:int -> (string * Dtype.t * Aeq_mem.Arena.ptr) list -> t
(** Wrap already-materialised arena columns (aggregate results) as a
    scannable table. *)
