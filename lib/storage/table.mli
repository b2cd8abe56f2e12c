(** In-memory columnar tables over the arena.

    Every cell is a native-endian 4-byte int32: keys, days since
    1970, dictionary codes and cents all fit, like the paper's native
    4-byte INTEGER and DATE columns. Generated code reads a cell with
    a 4-byte load sign-extended to i64; pointers to the columns are
    handed to it through the query-state area. *)

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
    starting [4 * rows * i] bytes after column 0: a table bigger than a
    chunk takes one chunk, not one per column, and each fresh chunk's
    off-heap bytes speed up the major GC by up to one cycle. *)

val column : t -> string -> column
(** @raise Not_found *)

val column_index : t -> string -> int

val get : Aeq_mem.Arena.t -> t -> col:int -> row:int -> int64
(** The cell, sign-extended. *)

type run = Aeq_mem.Arena.chunk * int

val column_run : Aeq_mem.Arena.t -> t -> int -> run
(** [column_run arena t col] is the arena chunk holding column [col]
    and the byte offset of its row 0 in it. {!Aeq_mem.Arena.alloc}
    never splits an allocation across chunks, so the whole column is
    one contiguous run: row [r] is the native-endian int32 at
    [offset + 4 * r]. Bulk loaders write cells there with the
    primitive {!Aeq_mem.Arena.chunk_set_i32}, which stays inlined and
    unboxed under -opaque, where a per-cell call into this module
    would not. *)
