(** Physical query plans: a list of pipelines over shared runtime
    objects, the unit at which the adaptive framework tracks progress
    and chooses execution modes.

    Runtime object ids (hash tables, aggregation table, output
    buffers, dictionary-predicate bitmaps) are assigned densely at
    planning time; the driver creates the objects in the same order at
    query setup, so generated code can reference them as integer
    constants. *)

type ht_spec = {
  ht_build_tref : int;
  ht_key : Scalar.t;  (** over the build table's columns *)
  ht_payload : (int * int) list;  (** (column index, payload byte offset) *)
  ht_payload_bytes : int;
}

type probe = {
  pr_ht : int;
  pr_key : Scalar.t;  (** over columns available at this point *)
  pr_tref : int;  (** table instance this probe makes available *)
  pr_filters : Scalar.t list;  (** evaluated inside the match loop *)
}

type agg_cfg = {
  agg_key_arity : int;  (** 0, 1 or 2 *)
  agg_accs : (Aeq_rt.Agg.acc_kind * Aeq_storage.Dtype.t) list;
}

type out_cfg = {
  out_names : string list;
  out_dtypes : Aeq_storage.Dtype.t list;
  out_row_bytes : int;
}

type sink =
  | S_build of { ht : int; key : Scalar.t; payload : (int * Scalar.t) list }
      (** (payload byte offset, value) *)
  | S_agg of {
      agg : int;
      keys : Scalar.t list;
      accs : (Aeq_rt.Agg.acc_kind * Scalar.t option) list;
    }
  | S_out of { out : int; exprs : Scalar.t list }

type source = Src_scan of { tref : int } | Src_agg_scan of { agg : int }

type pipeline = {
  p_name : string;
  p_source : source;
  p_scan_filters : Scalar.t list;
  p_probes : probe list;
  p_sink : sink;
}

type t = {
  pl_pipelines : pipeline list;  (** in execution order *)
  pl_trefs : (Aeq_storage.Table.t * string) array;
  pl_hts : ht_spec array;
  pl_agg : agg_cfg option;
  pl_out : out_cfg;
  pl_preds : Aeq_rt.Bitmap.t array;
  pl_order_by : (int * bool) list;  (** output column index, desc *)
  pl_limit : int option;
}

(** {1 Query-state layout}

    The state area is an arena region of 8-byte slots holding column
    base pointers; generated code and the driver agree on the layout
    through these functions. *)

type layout

val layout : t -> layout

val slot_of_col : layout -> tref:int -> col:int -> int

val slot_of_agg_col : layout -> int -> int

val n_slots : layout -> int
