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
(** Zeroed columns of [rows] cells in one arena allocation, column [i]
    starting [8 * rows * i] bytes after column 0: a table bigger than a
    chunk takes one chunk, not one per column, and each fresh chunk's
    off-heap bytes speed up the major GC by up to one cycle. *)

val column : t -> string -> column
(** @raise Not_found *)

val column_index : t -> string -> int

val get : Aeq_mem.Arena.t -> t -> col:int -> row:int -> int64

val column_run : Aeq_mem.Arena.t -> t -> int -> Aeq_mem.Arena.chunk * int
(** [column_run arena t col] is the arena chunk holding column [col]
    and the byte offset of its row 0 in it. {!Aeq_mem.Arena.alloc}
    never splits an allocation across chunks, so the whole column is
    one contiguous run: row [r] is the native-endian int64 at
    [offset + 8 * r]. Bulk loaders write cells there with the inlined
    primitive {!Aeq_mem.Arena.chunk_set_i64}, which keeps the value
    unboxed where a per-cell function call would box it. *)

val of_columns :
  name:string -> n_rows:int -> (string * Dtype.t * Aeq_mem.Arena.ptr) list -> t
(** Wrap already-materialised arena columns (aggregate results) as a
    scannable table. *)
