(* An interruptible timed wait over a self-pipe.

   OCaml's stdlib [Condition] has no timed wait, so a domain that
   wants "sleep up to N seconds unless woken" — a supervisor backing
   off before a restart, a drain waiting for in-flight work — would
   [Unix.sleepf] and make every shutdown pay the full sleep.
   Here the sleeper selects on the read end of a pipe; [wake] writes a
   byte, turning the remaining sleep into an immediate return. Wakes
   are sticky until consumed: a [wake] racing slightly ahead of the
   [wait] still cuts that wait short. *)

let () = Aeq_race.declare "util.waiter.state" (Aeq_race.Lock "util.waiter.lock")

type t = {
  rd : Unix.file_descr;
  wr : Unix.file_descr;
  lock : Aeq_race.Lock.t; (* guards the fds against wake/dispose races *)
  mutable disposed : bool;
  loc : Aeq_race.location;
}

let close_fds t =
  if not t.disposed then begin
    t.disposed <- true;
    (try Unix.close t.rd with Unix.Unix_error _ -> ());
    try Unix.close t.wr with Unix.Unix_error _ -> ()
  end

let dispose t =
  Aeq_race.Lock.with_ t.lock (fun () ->
      Aeq_race.write ~site:"waiter.dispose" t.loc;
      close_fds t)

let create () =
  let rd, wr = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock rd;
  Unix.set_nonblock wr;
  let t =
    {
      rd;
      wr;
      lock = Aeq_race.Lock.create "util.waiter.lock";
      disposed = false;
      loc = Aeq_race.locate "util.waiter.state";
    }
  in
  (* waiters are cheap to forget (an owner dropped without its
     shutdown never calls [dispose]); reclaim the pipe fds with the
     record. The finaliser takes neither [t.lock] nor a race hook: it
     runs at whatever allocation triggers it, possibly inside the race
     detector's own critical section, which must not be re-entered
     (the detector's mutex would raise and stay held). Once [t] is
     unreachable no [wake] or [dispose] can race it. *)
  Gc.finalise close_fds t;
  t

let wake t =
  Aeq_race.Lock.with_ t.lock (fun () ->
      Aeq_race.read ~site:"waiter.wake" t.loc;
      if not t.disposed then begin
        try ignore (Unix.write t.wr (Bytes.make 1 'w') 0 1) with
        | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          () (* pipe already full of unconsumed wakes: the sleeper will see them *)
        | Unix.Unix_error (Unix.EINTR, _, _) -> ()
      end)

(* drain every pending wake byte so the next [wait] actually sleeps *)
let drain t =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read t.rd buf 0 64 with
    | n when n > 0 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let wait t seconds =
  if seconds > 0.0 then begin
    match Unix.select [ t.rd ] [] [] seconds with
    | [], _, _ -> false (* timed out *)
    | _ ->
      drain t;
      true
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      (* a signal landed; treat it as a wake so signal-driven shutdown
         (SIGTERM → drain) is never stuck behind a sleeping select *)
      true
    | exception Unix.Unix_error (Unix.EBADF, _, _) -> true (* disposed under us *)
  end
  else false

