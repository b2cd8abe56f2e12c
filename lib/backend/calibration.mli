(** Measures the real throughput ratios between the bytecode
    interpreter and the closure backends on a synthetic arithmetic
    kernel. The paper determines the inter-mode speed-ups empirically
    (Section III-C, "determined empirically in our system"); the
    adaptive controller can feed these measured values into the cost
    model instead of the paper's published 3.6×/5.0×. Results are
    computed once and cached for the process.

    The kernel (a filtered, checked aggregation over an [int64]
    column) is built, translated and compiled once. It then runs over
    a 12,288-row column in 3 interleaved rounds: each round times
    bytecode, unoptimized and optimized once, rotating which tier goes
    first, so each tier runs once in each position. Each tier's
    estimate is its fastest round, and each speed-up is floored at
    1.01 (unopt) and 1.02 (opt). *)

type t = { speedup_unopt : float; speedup_opt : float }

val measure : unit -> t
(** Cached after the first call. The first call took a median of
    12.1 ms (q1–q3 8.8–13.3) over 70 fresh processes on a 2-vCPU
    x86-64 VM, dev profile. The three sequential 50k-row runs per tier
    it replaced took 39.6 ms (32.6–44.6) in alternating processes. *)
