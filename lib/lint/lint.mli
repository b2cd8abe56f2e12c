(** Static concurrency-discipline lint over OCaml source.

    A Parsetree walk (compiler-libs) enforcing the locking discipline
    that the dynamic race detector ([Aeq_race]) checks at runtime —
    the two analyses share one declaration registry and one probe-site
    catalog, and CI runs both.

    Per-file rules (selectable via [?rules]):

    - ["raw-mutex"]: no [Mutex.lock]/[unlock]/[try_lock]/[create] and
      no [Condition.wait] outside the detector itself. Locks are taken
      through [Aeq_race.Lock] so every acquire/release feeds the
      lockset and vector-clock state; a raw mutex is invisible to the
      detector and a hole in the analysis.
    - ["yield-in-lock"]: no [Probe.yield] or [Probe.hit] lexically
      inside an [Aeq_race.Lock.with_] / [with_lock] / [locked]
      critical section. Under simulation a probe suspends the task,
      and an armed [Delay] sleeps; either, while holding a lock,
      stalls every peer behind it.
    - ["sleep-in-exec"]: no [Unix.sleepf]/[Unix.sleep] — engine code
      must block on [Aeq_util.Waiter] so shutdown can interrupt the
      wait.
    - ["failpoint-literal"]: every [Probe.hit] and [Probe.yield] call
      site must pass a string literal, so the site catalog cross-check
      (CLI level) can see it.
    - ["declare-literal"]: every [Aeq_race.declare] must name its
      location with a string literal, for the same reason.

    A finding can be waived for one subtree with
    [(expr [@lint.allow "rule"])]. Whole-tree cross-checks (probe
    catalog coverage, registry/DESIGN.md coverage) live in the
    [aeq_lint] executable, which aggregates the per-file scans. *)

type finding = {
  f_file : string;
  f_line : int;
  f_col : int;
  f_rule : string;
  f_msg : string;
}

type scan = {
  sc_findings : finding list; (* source order *)
  sc_hit_sites : (string * int) list;
      (* literal [Probe.hit] sites with their lines *)
  sc_yield_sites : (string * int) list;
      (* literal [Probe.yield] sites with their lines *)
  sc_declares : (string * int) list;
      (* literal [Aeq_race.declare] location names with their lines *)
}

val all_rules : string list

val finding_to_string : finding -> string
(** [file:line:col: [rule] message] — one line, compiler style. *)

val lint_source : ?rules:string list -> filename:string -> string -> scan
(** Parse [source] and apply [rules] (default: all). A syntax error
    yields a single ["parse"] finding rather than an exception: the
    lint must not crash on a tree it cannot read. *)

val design_table_names : string -> string list
(** Extract the location names (first backticked column cell of each
    table row) from the "Locking discipline" section of DESIGN.md
    content. Used by the CLI for the registry-coverage cross-check. *)
