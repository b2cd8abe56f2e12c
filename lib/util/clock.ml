(* The wall clock, behind one indirection so the deterministic
   simulator can substitute a virtual clock: every timer, timeout and
   deadline in the engine reads [now], so overriding the source makes
   time itself part of the replayable schedule. Production cost: one
   ref dereference on top of gettimeofday. *)
let source : (unit -> float) option ref = ref None

(* the real clock is called directly, not through a closure, so its
   float stays unboxed: [now_ns] allocates nothing *)
let[@inline] now () = match !source with None -> Unix.gettimeofday () | Some f -> f ()

let now_ns () = int_of_float (now () *. 1e9)

let set_source f = source := Some f

let reset_source () = source := None

let time_it f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let busy_wait s =
  if s > 0.0 then begin
    let deadline = now () +. s in
    while now () < deadline do
      (* A short computation batch between clock reads keeps the spin
         from hammering the VDSO call. *)
      let acc = ref 0 in
      for i = 1 to 500 do
        acc := !acc + i
      done;
      ignore (Sys.opaque_identity !acc)
    done
  end
