type t =
  | F0 of (Bytes.t -> int)
  | F1 of (Bytes.t -> int -> int)
  | F2 of (Bytes.t -> int -> int -> int)
  | F3 of (Bytes.t -> int -> int -> int -> int)
  | F4 of (Bytes.t -> int -> int -> int -> int -> int)
  | F5 of (Bytes.t -> int -> int -> int -> int -> int -> int)

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64"

let arity = function F0 _ -> 0 | F1 _ -> 1 | F2 _ -> 2 | F3 _ -> 3 | F4 _ -> 4 | F5 _ -> 5

type resolver = string -> t option
