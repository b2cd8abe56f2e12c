(** Column data types.

    Every table cell is physically a 1-, 2- or 4-byte signed integer
    in the arena, the narrowest that holds its column's declared range
    (see {!Table}), read sign-extended to i64; registers, hash tables
    and aggregates hold 8-byte integers:
    - [Int]: integer;
    - [Decimal]: fixed-point with two fractional digits (value × 100),
      the HyPer-style representation that makes decimal arithmetic
      overflow-checked integer arithmetic;
    - [Date]: days since 1970-01-01;
    - [Str]: dictionary code (see {!Aeq_rt.Dict});
    - [Bool]: 0/1. *)

type t = Int | Decimal | Date | Str | Bool

val equal : t -> t -> bool

val to_string : t -> string

val scale : int
(** Decimal fixed-point scale (100). *)
