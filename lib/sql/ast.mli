(** Abstract syntax of the supported SQL subset:

    SELECT expr [AS alias], ...
    FROM tbl [alias] (, tbl [alias] | JOIN tbl [alias] ON cond)*
    [WHERE cond] [GROUP BY exprs] [HAVING cond]
    [ORDER BY expr [DESC], ...] [LIMIT n]

    with arithmetic, comparisons, AND/OR/NOT, BETWEEN, IN lists, LIKE
    (evaluated over the dictionary at plan time), EXTRACT(YEAR FROM e),
    simple CASE WHEN, and the aggregates SUM/MIN/MAX/COUNT/AVG. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or

type agg_fn = Sum | Min | Max | Count | Avg

type expr =
  | Col of string option * string  (** qualifier, column *)
  | Lit_int of int64
  | Lit_dec of int64  (** scaled by {!Aeq_storage.Dtype.scale} *)
  | Lit_str of string
  | Lit_date of int  (** days since 1970-01-01 *)
  | Bin of binop * expr * expr
  | Neg of expr
  | Not of expr
  | Between of expr * expr * expr
  | In_list of expr * expr list
  | Like of expr * string
  | Extract_year of expr
  | Case of (expr * expr) list * expr option
  | Agg of agg_fn * expr option  (** [None] means COUNT over all rows *)

type select_item = { expr : expr; alias : string option }

type order_item = { key : expr; desc : bool }

type query = {
  select : select_item list;
  from : (string * string option) list;
  join_on : expr list;  (** ON conditions, folded into WHERE conjuncts *)
  where : expr option;
  group_by : expr list;
  having : expr option;
  order_by : order_item list;
  limit : int option;
}

val expr_to_string : expr -> string
(** Debug printer. *)

val binop_name : binop -> string
