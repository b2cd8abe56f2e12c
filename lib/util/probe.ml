exception Injected of string

exception Injected_crash of string

(* [Injected_crash] deliberately escapes the structured-error
   discipline: every layer that converts exceptions into [Query_error]
   must let it pass, so it reaches (and kills) the hosting domain —
   that is the whole point of the [Crash] action. [Fun.protect]
   finalisers along the unwind may re-wrap it; [is_crash] sees through
   the wrapping. *)
let rec is_crash = function
  | Injected_crash _ -> true
  | Fun.Finally_raised e -> is_crash e
  | _ -> false

let () =
  Printexc.register_printer (function
    | Injected_crash site -> Some ("injected domain crash at " ^ site)
    | _ -> None)

type action = Fail | Delay of float | Prob_fail of float | Crash

type entry = {
  action : action;
  on_hit : int;
  persistent : bool;
  hits : int Atomic.t;
  fired : int Atomic.t;
}

(* Registry mutations take the lock; probes read it only after the
   lock-free gate says at least one site is armed, so the per-morsel /
   per-alloc cost of a disarmed registry is one atomic load. *)
let () =
  Aeq_race.declare "util.probe.registry" (Aeq_race.Lock "util.probe.lock");
  Aeq_race.declare "util.probe.handler" Aeq_race.Atomic

let lock = Aeq_race.Lock.create "util.probe.lock"

let registry_loc = Aeq_race.locate "util.probe.registry"

let locked f = Aeq_race.Lock.with_ lock f

let table : (string, entry) Hashtbl.t = Hashtbl.create 8

(* Every fault site compiled into the engine. Arming a name outside
   this catalog is rejected loudly: a typo'd site used to arm nothing
   and the chaos run silently tested the happy path. Tests exercising
   the registry itself extend the catalog with [register_site]. *)
let fault_sites =
  [
    "compile.unopt";
    "compile.opt";
    "compile.singleflight";
    "driver.morsel";
    "arena.alloc";
    "arena.lease";
    "arena.release";
    "pool.pick";
    "sched.dispatch";
    "net.accept";
    "net.read";
    "net.write";
  ]

let yield_sites =
  [
    "driver.ctx_install";
    "engine.cache";
    "engine.singleflight.wait";
    "supervisor.backoff";
    "supervisor.crash";
    "supervisor.restart";
  ]

let extra_sites : (string, unit) Hashtbl.t = Hashtbl.create 4

let valid_sites () =
  locked (fun () ->
      Aeq_race.read ~site:"probe.valid_sites" registry_loc;
      fault_sites @ List.of_seq (Hashtbl.to_seq_keys extra_sites))

let check_site site =
  let valid = valid_sites () in
  if not (List.mem site valid) then
    invalid_arg
      (Printf.sprintf "Probe: unknown site %S (valid sites: %s)" site
         (String.concat ", " (List.sort compare valid)))

(* One PRNG for every probabilistic site, drawn under the registry
   lock: chaos runs are reproducible given the seed and a fixed
   interleaving, and at worst statistically stable across
   interleavings. *)
let prng = ref (Prng.create 0x5EEDFA117L)

(* The one gate: twice the number of armed sites, plus one while a
   simulator handler is installed. Zero means every probe is off, so a
   disabled [hit] or [yield] is one atomic load and an untaken branch.
   Written only under [lock]. *)
let gate = Atomic.make 0

let armed () = Atomic.get gate > 1

let simulating () = Atomic.get gate land 1 = 1

(* An atomic in its own right, not a ref published by [gate]: an
   uninstall/install cycle racing a concurrent probe would otherwise
   read the handler unordered. *)
let handler : (string -> unit) Atomic.t = Atomic.make ignore

let set_seed seed =
  locked (fun () ->
      Aeq_race.write ~site:"probe.set_seed" registry_loc;
      prng := Prng.create seed)

let register_site site =
  locked (fun () ->
      Aeq_race.write ~site:"probe.register_site" registry_loc;
      Hashtbl.replace extra_sites site ())

let activate ?(on_hit = 1) ?(persistent = true) site action =
  check_site site;
  if on_hit < 1 then invalid_arg "Probe.activate: on_hit must be >= 1";
  (match action with
  | Prob_fail p when not (p >= 0.0 && p <= 1.0) ->
    invalid_arg "Probe.activate: probability must be in [0,1]"
  | _ -> ());
  locked (fun () ->
      Aeq_race.write ~site:"probe.activate" registry_loc;
      if not (Hashtbl.mem table site) then ignore (Atomic.fetch_and_add gate 2);
      Hashtbl.replace table site
        {
          action;
          on_hit;
          persistent;
          hits = Atomic.make 0;
          fired = Atomic.make 0;
        })

let deactivate site =
  locked (fun () ->
      Aeq_race.write ~site:"probe.deactivate" registry_loc;
      if Hashtbl.mem table site then begin
        Hashtbl.remove table site;
        ignore (Atomic.fetch_and_add gate (-2))
      end)

let clear () =
  locked (fun () ->
      Aeq_race.write ~site:"probe.clear" registry_loc;
      Hashtbl.reset table;
      Atomic.set gate (Atomic.get gate land 1))

let find site =
  locked (fun () ->
      Aeq_race.read ~site:"probe.find" registry_loc;
      Hashtbl.find_opt table site)

let hits site = match find site with Some e -> Atomic.get e.hits | None -> 0

let fired site = match find site with Some e -> Atomic.get e.fired | None -> 0

let fire site =
  match find site with
  | None -> ()
  | Some e ->
    let n = 1 + Atomic.fetch_and_add e.hits 1 in
    let triggers = if e.persistent then n >= e.on_hit else n = e.on_hit in
    if triggers then begin
      match e.action with
      | Fail ->
        Atomic.incr e.fired;
        raise (Injected site)
      | Delay s ->
        Atomic.incr e.fired;
        Unix.sleepf s
      | Prob_fail p ->
        (* draw under the lock; the coin decides whether this hit
           counts as fired at all *)
        let draw =
          locked (fun () ->
              Aeq_race.write ~site:"probe.draw" registry_loc;
              Prng.float !prng 1.0)
        in
        if draw < p then begin
          Atomic.incr e.fired;
          raise (Injected site)
        end
      | Crash ->
        Atomic.incr e.fired;
        raise (Injected_crash site)
    end

(* the scheduling point comes first, so the simulator sees every hit —
   including the one that then raises *)
let[@inline] hit site =
  if Atomic.get gate <> 0 then begin
    (Atomic.get handler) site;
    if armed () then fire site
  end

let[@inline] yield site =
  if Atomic.get gate land 1 <> 0 then (Atomic.get handler) site

let install f =
  locked (fun () ->
      if simulating () then
        invalid_arg "Probe.install: a simulation handler is already installed";
      Atomic.set handler f;
      Atomic.incr gate)

let uninstall () =
  locked (fun () ->
      if simulating () then begin
        Atomic.decr gate;
        Atomic.set handler ignore
      end)

let with_handler f body =
  install f;
  Fun.protect ~finally:uninstall body

(* "site=fail", "site=fail@3", "site=crash", "site=delay:0.01",
   "site=delay:0.01@2", "site=p:0.25", joined by ',' or ';'. "@N"
   makes the site one-shot on its Nth hit; without it the site fires
   on every hit. "p:F" fails each hit with probability F (chaos mode);
   "crash" raises the non-Query_error [Injected_crash], killing the
   hosting domain unless a supervisor contains it. *)
let set_from_string spec =
  let bad part = invalid_arg ("Probe: cannot parse \"" ^ part ^ "\"") in
  String.split_on_char ',' (String.map (fun c -> if c = ';' then ',' else c) spec)
  |> List.iter (fun part ->
         let part = String.trim part in
         if part <> "" then
           match String.index_opt part '=' with
           | None -> bad part
           | Some i ->
             let site = String.sub part 0 i in
             let rhs = String.sub part (i + 1) (String.length part - i - 1) in
             let act, on_hit =
               match String.index_opt rhs '@' with
               | None -> (rhs, None)
               | Some j ->
                 let n = String.sub rhs (j + 1) (String.length rhs - j - 1) in
                 (match int_of_string_opt n with
                 | Some n when n >= 1 -> (String.sub rhs 0 j, Some n)
                 | _ -> bad part)
             in
             let action =
               if act = "fail" then Fail
               else if act = "crash" then Crash
               else if String.length act > 6 && String.sub act 0 6 = "delay:" then
                 match
                   float_of_string_opt (String.sub act 6 (String.length act - 6))
                 with
                 | Some s when s >= 0.0 -> Delay s
                 | _ -> bad part
               else if String.length act > 2 && String.sub act 0 2 = "p:" then
                 match float_of_string_opt (String.sub act 2 (String.length act - 2)) with
                 | Some p when p >= 0.0 && p <= 1.0 -> Prob_fail p
                 | _ -> bad part
               else bad part
             in
             (match on_hit with
             | None -> activate site action
             | Some n -> activate ~on_hit:n ~persistent:false site action))

let env_var = "AEQ_FAILPOINTS"

let () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> ()
  | Some spec -> (
    try set_from_string spec
    with Invalid_argument m -> Printf.eprintf "warning: %s ignored: %s\n%!" env_var m)
