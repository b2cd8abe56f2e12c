type t = {
  cancelled : bool Atomic.t;
  deadline : (float * float) option Atomic.t; (* absolute, allowance *)
}

let create () = { cancelled = Atomic.make false; deadline = Atomic.make None }

let cancel t = Atomic.set t.cancelled true

let set_deadline t ~at ~allowance = Atomic.set t.deadline (Some (at, allowance))

let check t =
  if Atomic.get t.cancelled then Some Query_error.Cancelled
  else
    match Atomic.get t.deadline with
    | Some (at, allowance) when Aeq_util.Clock.now () > at ->
      Some (Query_error.Timeout allowance)
    | _ -> None
