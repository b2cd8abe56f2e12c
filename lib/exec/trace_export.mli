(** Chrome trace-event export: the paper's Fig. 14 timeline as a
    [chrome://tracing] / Perfetto document instead of ASCII lanes.

    Merges two sources onto one timeline:
    - the execution {!Trace} (morsel intervals and compile bursts, one
      lane per worker thread, pid 0);
    - the {!Aeq_obs.Event_log} (pid 1, one lane per recording domain):
      lifecycle spans (parse → plan → codegen → optimize → translate →
      compile → execute) as slices, and adaptive controller decisions
      as instant events with the extrapolated totals in [args], on the
      lane of the domain that evaluated them.

    All timestamps are rebased to the earliest event so the document
    starts at t=0. *)

val chrome_json : ?trace:Trace.t -> unit -> string
(** The merged events (spans and decisions are read from the global
    event log) rendered as a complete JSON document. *)

val write_file : ?trace:Trace.t -> string -> unit
(** [write_file path] — {!chrome_json} to [path]. *)
