type t = {
  simulate : bool;
  bc_base : float;
  bc_per_instr : float;
  unopt_base : float;
  unopt_per_instr : float;
  opt_base : float;
  opt_per_instr : float;
  opt_quad : float;
  speedup_unopt : float;
  speedup_opt : float;
}

(* Derived from the paper: Table I gives Q1 ≈ 0.4 ms bytecode, 6 ms
   unoptimized, 42 ms optimized at roughly 1,000 IR instructions;
   Fig. 15 shows optimized compilation passing 4 s near 10,000
   instructions in a single function, which fixes the quadratic
   term; unoptimized stays near-linear up to 160,000 instructions.
   The speed-up seeds are this build's, not the paper's 3.6x/5.0x:
   the steady state of a filtered, checked aggregation kernel, tiers
   interleaved, best of 7 rounds in 3 processes, read unopt 1.23-1.28
   and opt 1.37-1.42 over bytecode. *)
let default =
  {
    simulate = true;
    bc_base = 0.00005;
    bc_per_instr = 3.5e-7;
    unopt_base = 0.0008;
    unopt_per_instr = 5.5e-6;
    opt_base = 0.0015;
    opt_per_instr = 3.6e-5;
    opt_quad = 3.8e-8;
    speedup_unopt = 1.25;
    speedup_opt = 1.40;
  }

let off = { default with simulate = false }

let with_speedups t ~unopt ~opt = { t with speedup_unopt = unopt; speedup_opt = opt }

type mode = Bytecode | Unopt | Opt

let mode_name = function
  | Bytecode -> "bytecode"
  | Unopt -> "unoptimized"
  | Opt -> "optimized"

let compile_time t mode n =
  let n = float_of_int n in
  match mode with
  | Bytecode -> t.bc_base +. (t.bc_per_instr *. n)
  | Unopt -> t.unopt_base +. (t.unopt_per_instr *. n)
  | Opt -> t.opt_base +. (t.opt_per_instr *. n) +. (t.opt_quad *. n *. n)
