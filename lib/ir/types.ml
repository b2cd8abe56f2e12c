type t = I1 | I8 | I16 | I32 | I64 | F64 | Ptr

let size_of = function
  | I1 | I8 -> 1
  | I16 -> 2
  | I32 -> 4
  | I64 | F64 | Ptr -> 8

let is_integer = function
  | I1 | I8 | I16 | I32 | I64 | Ptr -> true
  | F64 -> false

let is_float = function F64 -> true | I1 | I8 | I16 | I32 | I64 | Ptr -> false

let equal (a : t) (b : t) = a = b

let to_string = function
  | I1 -> "i1"
  | I8 -> "i8"
  | I16 -> "i16"
  | I32 -> "i32"
  | I64 -> "i64"
  | F64 -> "f64"
  | Ptr -> "ptr"

let pp fmt t = Format.pp_print_string fmt (to_string t)
