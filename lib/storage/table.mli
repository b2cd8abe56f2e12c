(** In-memory columnar tables over the arena.

    Every column declares the range [lo..hi] its values lie in, and
    its cells are the narrowest native-endian signed integers, 1, 2 or
    4 bytes wide, that hold that range: keys, days since 1970,
    dictionary codes and cents all fit in 4 bytes, like the paper's
    native 4-byte INTEGER and DATE columns, and most fit in fewer.
    Generated code reads a cell with a load of the column's width
    sign-extended to i64; pointers to the columns are handed to it
    through the query-state area. *)

type column = {
  name : string;
  dtype : Dtype.t;
  lo : int;
  hi : int;  (** every cell lies in [lo..hi] *)
  width : int;  (** bytes a cell: 1, 2 or 4 *)
  data : Aeq_mem.Arena.ptr;
}

type t = {
  name : string;
  n_rows : int;
  columns : column array;
}

val create :
  Aeq_mem.Arena.allocator ->
  name:string ->
  rows:int ->
  schema:(string * Dtype.t * (int * int)) list ->
  t
(** Zeroed columns of [rows] cells in one arena allocation: a schema
    entry [(name, dtype, (lo, hi))] is a column whose cells are the
    narrowest of 1, 2 and 4 bytes whose signed range holds [lo..hi],
    and each column starts at the next 8-byte boundary after the one
    before. A table bigger than a chunk takes one chunk, not one per
    column, and each fresh chunk's off-heap bytes speed up the major
    GC by up to one cycle.
    @raise Invalid_argument if a range is empty or exceeds int32. *)

val column : t -> string -> column
(** @raise Not_found *)

val column_index : t -> string -> int

val get : Aeq_mem.Arena.t -> t -> col:int -> row:int -> int64
(** The cell, sign-extended. *)

type run = {
  chunk : Aeq_mem.Arena.chunk;
  offset : int;  (** byte offset of row 0 in [chunk] *)
  width : int;
  lo : int;
  hi : int;
}

val column_run : Aeq_mem.Arena.t -> t -> int -> run
(** [column_run arena t col] is column [col]'s arena chunk, the byte
    offset of its row 0 in it, and its cell width and declared range.
    {!Aeq_mem.Arena.alloc} never splits an allocation across chunks,
    so the whole column is one contiguous run: row [r] is the
    native-endian [width]-byte signed integer at [offset + width * r].
    Bulk loaders write cells there with the chunk primitives of
    {!Aeq_mem.Arena}, which stay inlined and unboxed under -opaque,
    where a per-cell call into this module would not. *)
