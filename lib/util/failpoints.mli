(** Deterministic fault injection.

    A failpoint is a named site in the engine (a compile, a morsel, an
    arena chunk grab) that can be armed to fail or stall on a chosen
    hit. The recovery paths of the fault-tolerance layer are only
    trustworthy if they run under test; this registry makes the faults
    reproducible.

    Sites wired in today (the full catalog; arming any other name
    raises [Invalid_argument] listing the valid sites — a typo'd site
    used to arm nothing, silently):
    - ["compile.unopt"] / ["compile.opt"] — hit in [Handle.promote]
      just before the machine-code variant is built (cached variants
      are not a compilation and do not hit the site);
    - ["compile.singleflight"] — hit by the plan cache's single-flight
      prepare, after the miss is claimed and before planning/codegen
      (waiters are woken and the caller gets a structured error);
    - ["driver.morsel"] — hit before every morsel of every pipeline;
    - ["arena.alloc"] — hit when the arena takes a new chunk
      (simulated allocation failure / OOM);
    - ["arena.lease"] — hit when a query takes its scratch lease,
      before the lease exists (a fault here must not leak);
    - ["arena.release"] — hit when a scratch lease is released; the
      chunk slots are reclaimed {e regardless} (the reclamation runs
      in a [Fun.protect] finaliser), so the fault exercises caller
      error paths without ever leaking memory;
    - ["pool.pick"] — hit when a pool participant (worker domain or
      the submitting caller) starts on a job, before the first morsel;
    - ["sched.dispatch"] — hit by a scheduler dispatcher after it has
      claimed a ticket (the ticket is registered, so a [Crash] here
      exercises the supervisor's in-flight-ticket reclaim);
    - ["sched.watchdog"] — hit by the scheduler watchdog once per
      sweep, before it takes the scheduler lock;
    - ["net.accept"] — hit by the wire server's accept loop after a
      connection is accepted and before its session starts (a fault
      here closes the socket without serving it);
    - ["net.read"] — hit before every frame read off a client socket
      (simulated connection drop / read error mid-protocol);
    - ["net.write"] — hit before every frame written to a client
      socket (simulated broken pipe while responding).

    The registry is global and thread-safe; a disarmed registry costs
    one atomic load per check. Arm programmatically with {!activate}
    or through the [AEQ_FAILPOINTS] environment variable, e.g.
    [AEQ_FAILPOINTS="compile.opt=fail,driver.morsel=fail@5"]. *)

exception Injected of string
(** Raised by a triggered [Fail] site, carrying the site name. *)

exception Injected_crash of string
(** Raised by a triggered [Crash] site. Unlike {!Injected}, this is
    {e not} part of the structured-error contract: every layer that
    folds exceptions into [Query_error] lets it pass, so it unwinds
    all the way out of the hosting domain — simulating a bug that
    kills a dispatcher, watchdog or pool worker. Only a supervisor
    barrier ([Aeq_exec.Supervisor]) contains it. *)

val is_crash : exn -> bool
(** Is this {!Injected_crash}, possibly wrapped in (nested)
    [Fun.Finally_raised] by finalisers along the unwind? Conversion
    layers use this to decide "let it escape". *)

type action =
  | Fail  (** raise {!Injected} *)
  | Delay of float  (** sleep this many seconds (slow compile, slow morsel) *)
  | Prob_fail of float
      (** raise {!Injected} with this probability on each hit — the
          chaos-mode action: a soak run under [Prob_fail] exercises
          compile degradation and structured-error paths
          non-deterministically but reproducibly (see {!set_seed}) *)
  | Crash
      (** raise {!Injected_crash} — kill the hosting domain (spec
          syntax [site=crash]); exercises the supervision layer's
          crash containment, reclaim and restart paths *)

val activate : ?on_hit:int -> ?persistent:bool -> string -> action -> unit
(** Arm a site. With [persistent] (the default) the site triggers on
    every hit from the [on_hit]-th (default 1) onward; with
    [~persistent:false] it triggers exactly once, on the [on_hit]-th
    hit. For [Prob_fail] the hit-count gate applies first, then the
    coin is tossed. Re-activating a site replaces its previous arming
    and resets its counters.
    @raise Invalid_argument if the site name is not in the catalog
    (see {!valid_sites}, {!register_site}) or a [Prob_fail]
    probability is outside [\[0,1\]]. *)

val builtin_sites : string list
(** The sites compiled into the engine proper, without test extras.
    The static lint cross-checks every literal [hit] call in the
    source tree against exactly this list, both directions. *)

val valid_sites : unit -> string list
(** The armable site catalog: every site compiled into the engine
    plus any test-registered extras. *)

val register_site : string -> unit
(** Extend the catalog with a synthetic site — for tests that
    exercise the registry itself rather than an engine site. *)

val set_seed : int64 -> unit
(** Re-seed the registry's PRNG (splitmix64, shared by every
    [Prob_fail] site). Chaos tests call this first so their fault
    schedule is reproducible. *)

val deactivate : string -> unit

val clear : unit -> unit
(** Disarm everything (tests should call this in cleanup). *)

val armed : unit -> bool
(** Any site armed? (the cheap fast-path check) *)

val hit : string -> unit
(** Evaluate a site. No-op unless the site is armed.
    @raise Injected if the armed action is [Fail] and this hit
    triggers. *)

val hits : string -> int
(** How many times the armed site was evaluated (0 if not armed;
    counters reset on re-activation). *)

val fired : string -> int
(** How many times the armed site actually triggered. *)

val set_from_string : string -> unit
(** Parse and activate a spec like
    ["compile.opt=fail,driver.morsel=delay:0.01@2,arena.alloc=p:0.05"].
    Entries are [site=fail], [site=crash], [site=delay:SECONDS] or
    [site=p:PROBABILITY], optionally suffixed [@N] to make the site
    one-shot on its Nth hit.
    @raise Invalid_argument on a malformed spec. *)

val env_var : string
(** ["AEQ_FAILPOINTS"] — parsed once at module initialisation
    (malformed values warn on stderr instead of raising). *)
