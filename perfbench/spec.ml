(* The benchmark's fixed constants and its metric catalogue.

   This module is the one place the benchmark's definition lives.
   BENCHMARK.json at the repository root repeats the workloads and
   every metric's name, unit, direction and bound for the tools that
   read it; test_suite.ml checks that the two agree field by field. The
   constants (scale factors, wire rates, latency limit) are part of the
   definition too: changing one is a benchmark change, measured on its
   own. *)

type workload = Tpch_adhoc | Tpch_warm | Giant_compile | Wire_meta

let workloads =
  [
    ("tpch_adhoc", Tpch_adhoc);
    ("tpch_warm", Tpch_warm);
    ("giant_compile", Giant_compile);
    ("wire_meta", Wire_meta);
  ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

let workload_of_name name = List.assoc_opt name workloads

(* Every run measures in this many fresh processes, one after another:
   a fresh heap and a fresh [Calibration] each. *)
let children = 5

(* The engine's worker pool and the server's [--threads]: the machine
   the benchmark was defined on has 2 cores. *)
let n_threads = 2

(* Default [--seconds]; BENCHMARK.json's run_seconds. *)
let run_seconds = 20

(* Each child sets up this many times and reports the median, so one
   slow set-up does not decide the child's [setup_s]. *)
let setups = 5

let scale_factor = function
  | Tpch_adhoc -> 0.01
  | Tpch_warm -> 0.03
  | Giant_compile -> 0.001
  | Wire_meta -> 0.01

(* Aggregate counts of the generated Fig. 15 queries. *)
let giant_sizes = [ 50; 200; 800 ]

(* giant_compile sends fresh text on every request, so each one inserts
   into the plan cache and, once it is full, evicts. A small capacity
   reaches that steady state within the warm-up, so memory does not
   grow with the number of requests a run manages to send. *)
let giant_plan_cache_capacity = 4

(* Closed-loop warm-up passes discarded before timing. *)
let warmup_passes = 2

(* Seeded passes each closed-loop child draws before it starts; the
   loop cycles through them. A 20 s run sends fewer than half of them
   on every workload, so giant_compile's texts do not repeat. *)
let drawn_passes = 64

(* ---- wire_meta --------------------------------------------------------- *)

let wire_connections = 2

(* Fixed offered rates (q/s), never re-calibrated: about 15, 30 and 50%
   of the 2-connection closed-loop capacity of the meta mix (~620 q/s
   on the 2-core x86-64 VM the benchmark was defined on). Latency
   metrics of wire_meta are read at the middle rate. *)
let wire_rates = [| 90.0; 185.0; 310.0 |]

let wire_middle = 1

(* Shares of each wire child's time: first the closed-loop capacity
   (wire_meta's throughput_qps), then each fixed rate; the middle rate
   gets the most, so the run's p99 has ten or more samples beyond it. *)
let wire_capacity_share = 0.1

let wire_time_shares = [| 0.1; 0.65; 0.15 |]

(* Requests the capacity phase draws from; it sends them in order and
   wraps around. *)
let wire_capacity_requests = 4096

(* A rate "meets the limit" when p99 <= this, at least
   [min_achieved_share] of the offered rate is achieved, and at most
   [max_failed_share] of requests fail. Each child reports the verdicts
   for the human reader. *)
let latency_limit_ms = 25.0

let min_achieved_share = 0.95

let max_failed_share = 0.001

(* Share of wire requests that are fresh literal variants of meta1 or
   meta4: new text, so a cold prepare on the serving path. *)
let variant_share = 0.10

(* ---- metrics ----------------------------------------------------------- *)

type better = Lower | Higher

type metric = {
  name : string;
  units : string;
  better : better;
  bound : float option;  (** end-to-end only: the share of the parent's median a change may lose *)
}

let metric ?(better = Lower) ?bound name units = { name; units; better; bound }

(* Only metrics that repeat within their bound from run to run on the
   host the benchmark was defined on are bounded. Every latency and
   throughput statistic tried moved with the load other tenants put on
   the host, by more than 10% over ten runs in some sets (the README
   has the numbers); the runs print them, unbounded, as
   [informational]. setup_s moves the most and carries the largest
   bound. *)
let end_to_end = [ metric "setup_s" "s" ~bound:0.25; metric "peak_rss_mb" "MB" ~bound:0.10 ]

let informational =
  [
    metric "geomean_ms" "ms";
    metric "latency_p50_ms" "ms";
    metric "latency_p99_ms" "ms";
    metric ~better:Higher "throughput_qps" "q/s";
  ]

let per_layer =
  [
    metric "sql.parse_us" "us";
    metric "plan.plan_us" "us";
    metric "plan.growth_exponent" "ratio";
    metric "codegen.ir_instrs" "count";
    metric "codegen.ns_per_instr" "ns";
    metric "codegen.growth_exponent" "ratio";
    metric "vm.translate_ns_per_instr" "ns";
    metric "vm.translate_growth_exponent" "ratio";
    metric "vm.bytecode_ops" "count";
    metric "vm.reg_file_bytes" "bytes";
    metric "backend.unopt_real_ns_per_instr" "ns";
    metric "backend.opt_real_ns_per_instr" "ns";
    metric "backend.opt_ir_shrink_ratio" "ratio";
    metric "backend.model_pad_ms" "ms";
    metric ~better:Higher "backend.calibrated_speedup_unopt" "ratio";
    metric ~better:Higher "backend.calibrated_speedup_opt" "ratio";
    metric "exec.bytecode_ns_per_row" "ns";
    metric "exec.unopt_ns_per_row" "ns";
    metric "exec.opt_ns_per_row" "ns";
    metric "exec.bytecode_words_per_row" "words";
    metric "exec.unopt_words_per_row" "words";
    metric "exec.opt_words_per_row" "words";
    metric "exec.adaptive_promotions" "count";
    metric "exec.fixed_ms" "ms";
    metric "gc.minor_words_per_query" "words";
    metric "gc.minor_collections_per_query" "count";
    metric "gc.major_collections_per_query" "count";
    metric "request.exec_ms_p50" "ms";
    metric "request.outside_exec_ms_p50" "ms";
    metric "request.outside_exec_ms_p99" "ms";
    metric "net.codec_us_per_frame" "us";
    metric ~better:Higher "core.plan_cache_hit_ratio" "ratio";
    metric "baseline.volcano_ms_geomean" "ms";
    metric "trace.unattributed_ratio" "ratio";
    metric "trace.overhead_ratio" "ratio";
    metric "share.parse" "ratio";
    metric "share.plan" "ratio";
    metric "share.codegen" "ratio";
    metric "share.translate" "ratio";
    metric "share.compile_real" "ratio";
    metric "share.compile_pad" "ratio";
    metric "share.driver_other" "ratio";
    metric ~better:Higher "share.execute" "ratio";
    metric "share.loadgen_wait" "ratio";
  ]

let find name = List.find_opt (fun m -> m.name = name) (end_to_end @ informational @ per_layer)
