let capacity = 1 lsl 16

let () = Aeq_race.declare "obs.ring" (Aeq_race.Lock "obs.ring.lock")

type 'a t = {
  start : 'a -> float;
  lock : Aeq_race.Lock.t;
  loc : Aeq_race.location;
  mutable items : 'a list; (* newest first *)
  mutable length : int;
  mutable dropped : int;
  mutable sorted : 'a list option; (* cache; invalidated by [push]/[clear] *)
}

let create ~start () =
  {
    start;
    lock = Aeq_race.Lock.create "obs.ring.lock";
    loc = Aeq_race.locate "obs.ring";
    items = [];
    length = 0;
    dropped = 0;
    sorted = None;
  }

let push t x =
  Aeq_race.Lock.with_ t.lock (fun () ->
      Aeq_race.write ~site:"ring.push" t.loc;
      (* full: drop the newcomer rather than the oldest — early events
         are the rare, interesting ones, and late morsel wraps would
         otherwise erase them. The drop is counted. *)
      if t.length >= capacity then t.dropped <- t.dropped + 1
      else begin
        t.items <- x :: t.items;
        t.length <- t.length + 1;
        t.sorted <- None
      end)

let snapshot t =
  Aeq_race.Lock.with_ t.lock (fun () ->
      Aeq_race.write ~site:"ring.snapshot" t.loc;
      match t.sorted with
      | Some l -> l
      | None ->
        let by_start a b = Float.compare (t.start a) (t.start b) in
        let l = List.stable_sort by_start (List.rev t.items) in
        t.sorted <- Some l;
        l)

let length t =
  Aeq_race.Lock.with_ t.lock (fun () ->
      Aeq_race.read ~site:"ring.length" t.loc;
      t.length)

let dropped t =
  Aeq_race.Lock.with_ t.lock (fun () ->
      Aeq_race.read ~site:"ring.dropped" t.loc;
      t.dropped)

let clear t =
  Aeq_race.Lock.with_ t.lock (fun () ->
      Aeq_race.write ~site:"ring.clear" t.loc;
      t.items <- [];
      t.length <- 0;
      t.dropped <- 0;
      t.sorted <- None)
