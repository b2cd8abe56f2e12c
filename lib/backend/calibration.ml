type t = { speedup_unopt : float; speedup_opt : float }

let seed (m : Cost_model.t) = { speedup_unopt = m.speedup_unopt; speedup_opt = m.speedup_opt }

(* the copy [measure] reports; no decision reads it *)
let latest = Atomic.make (seed Cost_model.default)

let measure () = Atomic.get latest

type estimate = t Atomic.t

let estimate m = Atomic.make (seed m)

let current = Atomic.get

(* Each sample moves the estimate a quarter of the way to it: one odd
   pipeline cannot swing the prices, and a few agreeing ones do. *)
let weight = 0.25

let rec observe e ~from ~to_ ~ratio =
  let cur = Atomic.get e in
  let towards old ~floor sample = old +. (weight *. (Float.max floor sample -. old)) in
  let next =
    match (from, to_) with
    | Cost_model.Bytecode, Cost_model.Unopt ->
      { cur with speedup_unopt = towards cur.speedup_unopt ~floor:1.01 ratio }
    | Cost_model.Bytecode, Cost_model.Opt ->
      { cur with speedup_opt = towards cur.speedup_opt ~floor:1.02 ratio }
    | Cost_model.Unopt, Cost_model.Opt ->
      { cur with speedup_opt = towards cur.speedup_opt ~floor:1.02 (ratio *. cur.speedup_unopt) }
    | _ -> cur
  in
  if Atomic.compare_and_set e cur next then Atomic.set latest next
  else observe e ~from ~to_ ~ratio
