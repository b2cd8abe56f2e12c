(** Named probe sites: deterministic fault injection and simulator
    scheduling points behind one gate.

    A probe is a named point in the engine's lifecycle (a compile, a
    morsel, an arena chunk grab, a plan-cache lookup). There are two
    kinds, chosen by the function called:

    - {!hit} marks a {e fault site}: it can be armed to fail, stall or
      crash on a chosen hit, and it is also a scheduling point for the
      deterministic simulator ([Aeq_sim]);
    - {!yield} marks a {e scheduling-only} site: the simulator may
      switch tasks there, but it cannot be armed.

    With nothing armed and no simulator handler installed — production,
    and every test that neither injects nor simulates — either call
    costs one atomic load and an untaken branch.

    The site catalog. Each kind has its own list ({!fault_sites},
    {!yield_sites}); the static lint cross-checks every literal
    [Probe.hit] / [Probe.yield] in [lib/] against its list, both
    directions.

    {v
    site                      kind   where
    compile.unopt/.opt        hit    Handle.promote, before a machine-code
                                     variant is built (not on a cached one)
    compile.singleflight      hit    single-flight prepare, after the miss is
                                     claimed (waiters are woken on a fault)
    driver.morsel             hit    before every morsel of every pipeline
    arena.lease               hit    before a query's scratch lease exists
    arena.alloc               hit    when the arena takes a new chunk
    arena.release             hit    on lease release; the chunks are
                                     reclaimed regardless of a fault
    pool.pick                 hit    when a pool participant starts a job
    sched.dispatch            hit    after a pool worker claims a ticket
                                     (a Crash exercises ticket reclaim)
    net.accept                hit    after accept, before the session starts
    net.read / net.write      hit    before every frame read / written
    driver.ctx_install        yield  after a worker installs its context
    engine.cache              yield  before the plan-cache lookup lock
    engine.singleflight.wait  yield  each poll of the single-flight wait
    supervisor.backoff        yield  each poll of the restart backoff
    supervisor.crash          yield  when a supervisor catches a crash
    supervisor.restart        yield  before a supervised body restarts
    v}

    Placement rule: a probe never sits inside a critical section. The
    simulator serializes tasks, so suspending a lock holder deadlocks
    every task that blocks on that lock for real, and an armed [Delay]
    stalls every peer behind the lock. Blocking waits on a simulated
    path spin through a {!yield} when {!simulating} instead of parking
    on a condition variable the simulator cannot see.

    Arm fault sites programmatically with {!activate} or through the
    [AEQ_FAILPOINTS] environment variable, e.g.
    [AEQ_FAILPOINTS="compile.opt=fail,driver.morsel=fail@5"]. *)

exception Injected of string
(** Raised by a triggered [Fail] site, carrying the site name. *)

exception Injected_crash of string
(** Raised by a triggered [Crash] site. Unlike {!Injected}, this is
    {e not} part of the structured-error contract: every layer that
    folds exceptions into [Query_error] lets it pass, so it unwinds
    all the way out of the hosting domain — simulating a bug that
    kills a pool worker. Only a supervisor
    barrier ([Aeq_exec.Supervisor]) contains it. *)

val is_crash : exn -> bool
(** Is this {!Injected_crash}, possibly wrapped in (nested)
    [Fun.Finally_raised] by finalisers along the unwind? Conversion
    layers use this to decide "let it escape". *)

(** {1 Probes} *)

val hit : string -> unit
(** A fault site. When a simulator handler is installed, the handler
    runs first (with the site name); then, if the site is armed and
    this hit triggers, the armed action runs.
    @raise Injected if the armed action is [Fail] or [Prob_fail] and
    this hit triggers.
    @raise Injected_crash if the armed action is [Crash] and this hit
    triggers. *)

val yield : string -> unit
(** A scheduling-only site: calls the installed simulator handler with
    the site name, or does nothing. *)

val fault_sites : string list
(** The fault sites compiled into the engine, without test extras. *)

val yield_sites : string list
(** The scheduling-only sites compiled into the engine. *)

(** {1 Fault injection} *)

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
(** Arm a fault site. With [persistent] (the default) the site
    triggers on every hit from the [on_hit]-th (default 1) onward; with
    [~persistent:false] it triggers exactly once, on the [on_hit]-th
    hit. For [Prob_fail] the hit-count gate applies first, then the
    coin is tossed. Re-activating a site replaces its previous arming
    and resets its counters.
    @raise Invalid_argument if the site name is not in the catalog
    (see {!valid_sites}, {!register_site}) or a [Prob_fail]
    probability is outside [\[0,1\]]. *)

val valid_sites : unit -> string list
(** The armable site catalog: {!fault_sites} followed by any
    test-registered extras. *)

val register_site : string -> unit
(** Extend the armable catalog with a synthetic site — for tests that
    exercise the registry itself rather than an engine site. *)

val set_seed : int64 -> unit
(** Re-seed the registry's PRNG (splitmix64, shared by every
    [Prob_fail] site). Chaos tests call this first so their fault
    schedule is reproducible. *)

val deactivate : string -> unit

val clear : unit -> unit
(** Disarm every fault site (tests should call this in cleanup). The
    simulator handler, if any, stays installed. *)

val armed : unit -> bool
(** Is any fault site armed? *)

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
    one-shot on its Nth hit. The [AEQ_FAILPOINTS] environment variable
    takes the same syntax and is parsed once at module initialisation
    (a malformed value warns on stderr instead of raising).
    @raise Invalid_argument on a malformed spec. *)

(** {1 Simulator hookup} *)

val simulating : unit -> bool
(** Is a simulator handler installed? *)

val install : (string -> unit) -> unit
(** Install the simulator handler: from now on every {!hit} and
    {!yield} calls it with the site name.
    @raise Invalid_argument if one is already installed. *)

val uninstall : unit -> unit
(** Remove the handler; probes revert to their disabled cost unless a
    fault site is armed. *)

val with_handler : (string -> unit) -> (unit -> 'a) -> 'a
(** [with_handler f body] installs [f] around [body], uninstalling on
    all exits. *)
