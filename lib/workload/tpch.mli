(** Deterministic TPC-H-style data generator.

    Builds the eight TPC-H tables at classic cardinalities scaled by
    the scale factor (lineitem ≈ 6M × SF rows), with value
    distributions that preserve what the evaluation depends on:
    realistic join fan-outs, selective date/segment/brand filters,
    decimal columns exercising overflow-checked arithmetic, and skew
    on return flags. Strings are dictionary-encoded at generation
    time. The same seed always yields the same database. *)

val load : ?seed:int64 -> scale_factor:float -> Aeq_storage.Catalog.t -> unit
(** Create and register all eight tables. Every column declares the
    range the generator can write into it (keys [0..n-1], dates,
    quantities, the span of a dictionary column's codes), so each is
    stored at the narrowest cell width that range needs
    ({!Aeq_storage.Table.create}). *)

val table_names : string list

val set_cell : Aeq_storage.Table.run -> int -> int -> unit
(** [set_cell run row v] is the loader's cell writer: it stores [v]
    in cell [row] of a column run, at the run's width.
    @raise Invalid_argument if [v] is outside the column's declared
    range: a cell never holds a value its column did not declare, and
    never a truncated one. *)
