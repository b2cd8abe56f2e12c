type ht_spec = {
  ht_build_tref : int;
  ht_key : Scalar.t;
  ht_payload : (int * int) list;
  ht_payload_bytes : int;
}

type probe = {
  pr_ht : int;
  pr_key : Scalar.t;
  pr_tref : int;
  pr_filters : Scalar.t list;
}

type agg_cfg = {
  agg_key_arity : int;
  agg_accs : (Aeq_rt.Agg.acc_kind * Aeq_storage.Dtype.t) list;
}

type out_cfg = {
  out_names : string list;
  out_dtypes : Aeq_storage.Dtype.t list;
  out_row_bytes : int;
}

type sink =
  | S_build of { ht : int; key : Scalar.t; payload : (int * Scalar.t) list }
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
  pl_pipelines : pipeline list;
  pl_trefs : (Aeq_storage.Table.t * string) array;
  pl_hts : ht_spec array;
  pl_agg : agg_cfg option;
  pl_out : out_cfg;
  pl_preds : Aeq_rt.Bitmap.t array;
  pl_order_by : (int * bool) list;
  pl_limit : int option;
}

type layout = { tref_base : int array; agg_base : int; total : int }

let layout plan =
  let n_trefs = Array.length plan.pl_trefs in
  let tref_base = Array.make n_trefs 0 in
  let cursor = ref 0 in
  for i = 0 to n_trefs - 1 do
    tref_base.(i) <- !cursor;
    cursor := !cursor + Array.length (fst plan.pl_trefs.(i)).Aeq_storage.Table.columns
  done;
  let agg_base = !cursor in
  let agg_cols =
    match plan.pl_agg with
    | Some cfg -> cfg.agg_key_arity + List.length cfg.agg_accs
    | None -> 0
  in
  { tref_base; agg_base; total = !cursor + agg_cols }

let slot_of_col l ~tref ~col = l.tref_base.(tref) + col

let slot_of_agg_col l k = l.agg_base + k

let n_slots l = l.total
