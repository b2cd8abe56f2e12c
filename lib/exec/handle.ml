module CM = Aeq_backend.Cost_model

type variant =
  | V_bytecode of Aeq_vm.Bytecode.t
  | V_compiled of CM.mode * Aeq_backend.Closure_compile.t

type compiled = {
  bytecode : Aeq_vm.Bytecode.t;
  n_instrs : int;
  bc_translate_seconds : float;
  regenerate : unit -> Func.t;
  unopt : Aeq_backend.Closure_compile.t option Atomic.t;
  opt : Aeq_backend.Closure_compile.t option Atomic.t;
  compile_seconds : float Atomic.t;
  unopt_blacklisted : bool Atomic.t;
  opt_blacklisted : bool Atomic.t;
}

type t = {
  c : compiled;
  cost_model : CM.t;
  symbols : Aeq_vm.Rt_fn.resolver;
  mem : Aeq_mem.Arena.t;
  current : variant Atomic.t;
  compiling : bool Atomic.t;
}

let compile_worker ~cost_model ~symbols ~regenerate func =
  let bytecode, bc_seconds =
    Aeq_backend.Compiler.translate_bytecode ~cost_model ~symbols func
  in
  {
    bytecode;
    n_instrs = Func.n_instrs func;
    bc_translate_seconds = bc_seconds;
    regenerate;
    unopt = Atomic.make None;
    opt = Atomic.make None;
    compile_seconds = Atomic.make 0.0;
    unopt_blacklisted = Atomic.make false;
    opt_blacklisted = Atomic.make false;
  }

let bind c ~cost_model ~symbols ~mem =
  {
    c;
    cost_model;
    symbols;
    mem;
    current = Atomic.make (V_bytecode c.bytecode);
    compiling = Atomic.make false;
  }

(* The best variant the artifact has cached: what a fresh execution of
   the prepared statement can promote to for free. (The installed
   variant is per-binding now — concurrent executions of one cached
   plan each adapt independently.) *)
let mode_of_compiled c =
  if Atomic.get c.opt <> None then CM.Opt
  else if Atomic.get c.unopt <> None then CM.Unopt
  else CM.Bytecode

let mode t =
  match Atomic.get t.current with
  | V_bytecode _ -> CM.Bytecode
  | V_compiled (m, _) -> m

let compiling t = t.compiling

let n_instrs t = t.c.n_instrs

let install t v = Atomic.set t.current v

let ensure_regs regs n =
  if Bytes.length !regs < n then regs := Bytes.make (Stdlib.max n (2 * Bytes.length !regs)) '\000'

external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* The worker's four parameters go straight into their register slots
   as ints: an argument array would box each of them. *)
let set_params regs (offsets : int array) ~state ~first ~last ~tid =
  set64 regs offsets.(0) (Int64.of_int state);
  set64 regs offsets.(1) (Int64.of_int first);
  set64 regs offsets.(2) (Int64.of_int last);
  set64 regs offsets.(3) (Int64.of_int tid)

let run_morsel t ~regs ~state ~first ~last ~tid =
  match Atomic.get t.current with
  | V_bytecode bc ->
    ensure_regs regs bc.Aeq_vm.Bytecode.n_reg_bytes;
    set_params !regs bc.Aeq_vm.Bytecode.param_offsets ~state ~first ~last ~tid;
    Aeq_vm.Interp.exec bc t.mem !regs
  | V_compiled (_, c) ->
    ensure_regs regs (Aeq_backend.Closure_compile.n_reg_bytes c);
    set_params !regs (Aeq_backend.Closure_compile.param_offsets c) ~state ~first ~last ~tid;
    Aeq_backend.Closure_compile.exec c !regs

let rec atomic_add_float a d =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (cur +. d)) then atomic_add_float a d

let blacklist_flag c = function
  | CM.Unopt -> Some c.unopt_blacklisted
  | CM.Opt -> Some c.opt_blacklisted
  | CM.Bytecode -> None

let blacklisted_compiled c mode =
  match blacklist_flag c mode with Some f -> Atomic.get f | None -> false

let blacklisted t mode = blacklisted_compiled t.c mode

let blacklist t mode =
  match blacklist_flag t.c mode with Some f -> Atomic.set f true | None -> ()

let promote t ~mode:m =
  if m = mode t then 0.0
  else
    match m with
    | CM.Bytecode ->
      install t (V_bytecode t.c.bytecode);
      0.0
    | CM.Unopt | CM.Opt -> (
      if blacklisted t m then
        Query_error.raise_error
          (Query_error.Compile_failed (m, "blacklisted after an earlier failure"));
      let slot = match m with CM.Unopt -> t.c.unopt | _ -> t.c.opt in
      match Atomic.get slot with
      | Some exec ->
        (* prepared-statement fast path: the variant survived an
           earlier execution, switching is a single store. The closure
           record behind [exec] was built by whichever domain won the
           compile race — consume its publication edge. *)
        Aeq_race.consume ();
        install t (V_compiled (m, exec));
        0.0
      | None ->
        let compiled =
          try
            (* literal site strings, one per branch: the probe
               catalog lint cross-checks every [hit] against
               [Probe.fault_sites] and can't see through a
               mode-to-string helper *)
            (match m with
            | CM.Unopt -> Aeq_util.Probe.hit "compile.unopt"
            | _ -> Aeq_util.Probe.hit "compile.opt");
            match m with
            | CM.Unopt ->
              (* the one unoptimized path: closure-compile the
                 bytecode program translated at prepare time *)
              Aeq_backend.Compiler.compile_unopt_of_bytecode ~cost_model:t.cost_model
                ~mem:t.mem ~n_instrs:t.c.n_instrs t.c.bytecode
            | _ ->
              (* the optimizing tier is the only reader of the IR, and
                 the artifact keeps none: rebuild this pipeline's IR
                 and count the rebuild in the promotion's latency *)
              let func, regen_seconds =
                Aeq_util.Clock.time_it (fun () ->
                    Aeq_obs.Event_log.with_span "codegen" t.c.regenerate)
              in
              let c =
                Aeq_backend.Compiler.compile ~cost_model:t.cost_model ~symbols:t.symbols
                  ~mem:t.mem ~mode:m func
              in
              { c with compile_seconds = c.compile_seconds +. regen_seconds }
          with e ->
            (* a failed compilation is never retried: the mode is dead
               for the lifetime of the compiled artifact (and thus of
               the prepared statement caching it) *)
            blacklist t m;
            raise e
        in
        (* another execution may have won the compile race; last store
           wins — both artifacts are valid, one is dropped *)
        Aeq_race.publish ();
        Atomic.set slot (Some compiled.Aeq_backend.Compiler.exec);
        install t (V_compiled (m, compiled.Aeq_backend.Compiler.exec));
        atomic_add_float t.c.compile_seconds compiled.Aeq_backend.Compiler.compile_seconds;
        compiled.Aeq_backend.Compiler.compile_seconds)
