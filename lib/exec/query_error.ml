module CM = Aeq_backend.Cost_model

type t =
  | Trap of string
  | Compile_failed of CM.mode * string
  | Timeout of float
  | Cancelled
  | Memory_budget_exceeded of { budget_bytes : int; used_bytes : int }
  | Overloaded of { queue_depth : int; capacity : int }
  | Rejected of string
  | Worker_crashed of { domain : string; detail : string }
  | Parse_failed of string
  | Plan_failed of string

exception Error of t

let to_string = function
  | Trap m -> "runtime trap: " ^ m
  | Compile_failed (mode, detail) ->
    Printf.sprintf "compilation to %s failed: %s" (CM.mode_name mode) detail
  | Timeout s -> Printf.sprintf "query exceeded its %.3f s timeout" s
  | Cancelled -> "query cancelled"
  | Memory_budget_exceeded { budget_bytes; used_bytes } ->
    Printf.sprintf "query memory budget exceeded: used %d of %d bytes" used_bytes
      budget_bytes
  | Overloaded { queue_depth; capacity } ->
    Printf.sprintf "engine overloaded: admission queue full (%d of %d)" queue_depth
      capacity
  | Rejected reason -> "query rejected: " ^ reason
  | Worker_crashed { domain; detail } ->
    Printf.sprintf "serving domain %s crashed while holding this query: %s" domain
      detail
  | Parse_failed m -> "parse error: " ^ m
  | Plan_failed m -> "planning error: " ^ m

let label = function
  | Trap _ -> "trap"
  | Compile_failed _ -> "compile_failed"
  | Timeout _ -> "timeout"
  | Cancelled -> "cancelled"
  | Memory_budget_exceeded _ -> "memory_budget"
  | Overloaded _ -> "overloaded"
  | Rejected _ -> "rejected"
  | Worker_crashed _ -> "worker_crashed"
  | Parse_failed _ -> "parse_failed"
  | Plan_failed _ -> "plan_failed"

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Aeq_exec.Query_error.Error: " ^ to_string e)
    | _ -> None)

let raise_error e = raise (Error e)

let of_exn = function
  | Error e -> e
  | Trap.Error m -> Trap m
  | Aeq_util.Probe.Injected site -> Trap ("injected fault at " ^ site)
  | Aeq_sql.Lexer.Lex_error m | Aeq_sql.Parser.Parse_error m -> Parse_failed m
  | Aeq_plan.Planner.Plan_error m -> Plan_failed m
  | e -> Trap (Printexc.to_string e)

let protect f =
  try f () with e when not (Aeq_util.Probe.is_crash e) -> raise (Error (of_exn e))
