(** Dynamic data-race detection: a guarded-by registry plus a
    lockset/vector-clock detector.

    Every shared mutable location in the engine declares its concurrency
    discipline in a central registry ({!declare}); code that touches such
    a location calls {!read}/{!write} with a site string. The detector
    maintains per-domain vector clocks and locksets, with happens-before
    edges on instrumented mutexes ({!Lock}), domain spawn/join
    ({!spawn}/{!join}) and single-flight publication, and reports both
    lockset violations (access without the declared guard) and
    happens-before races (two unordered conflicting accesses), naming the
    two conflicting access sites.

    Everything is gated on one atomic flag ({!Control}): with the
    detector disabled, each hook is a single atomic load and branch. *)

module Control : sig
  val enabled : unit -> bool
  (** One atomic load. [AEQ_RACE=1] (or any non-zero value) arms the
      detector at startup; [AEQ_RACE=fatal] additionally makes the first
      report abort the process (exit 70) so chaos soaks fail loudly. *)

  val set_enabled : bool -> unit

  val fatal : unit -> bool

  val set_fatal : bool -> unit

  val with_enabled : bool -> (unit -> 'a) -> 'a
  (** Run [f] with the detector forced on/off; restores on exit. *)
end

(** The concurrency discipline of a shared mutable location. *)
type discipline =
  | Lock of string
      (** Guarded by the named {!Lock.t}: every access must hold it.
          Happens-before is inherited from the lock instance. *)
  | Atomic
      (** An [Atomic.t] (or a field only accessed through atomics):
          sequentially consistent by construction, never checked
          dynamically, declared for the discipline table. *)
  | Domain_local
      (** Owned by one domain at a time; ownership may only transfer
          through a happens-before edge (publication). *)
  | Single_writer
      (** One writer domain; readers must be ordered after the writes
          by an explicit happens-before edge. *)

val declare : string -> discipline -> unit
(** Register a location name with its discipline. Idempotent; raises
    [Invalid_argument] on a conflicting redeclaration. *)

val disciplines : unit -> (string * discipline) list
(** All declared locations, sorted by name (for docs/lint). *)

val discipline_to_string : discipline -> string

type location
(** A per-instance handle for a declared location name. Two engines (or
    two workers' chains of one join table) each get their own
    [location] so unrelated instances can never alias into a false
    race. *)

val locate : string -> location
(** Create an instance handle for a declared name. Raises
    [Invalid_argument] if the name was never declared — registry
    coverage is part of the discipline. Cheap (a small record); safe to
    call per-structure at construction time even when disabled. *)

val read : site:string -> location -> unit
(** Record a read of [loc] at source site [site]. No-op when disabled. *)

val write : site:string -> location -> unit
(** Record a write of [loc] at source site [site]. No-op when disabled. *)

(** An instrumented mutex: the only lock type engine code should use.
    Acquire/release maintain the per-domain lockset and the
    release/acquire happens-before edges. *)
module Lock : sig
  type t

  val create : string -> t
  (** [create name] — [name] is what {!Lock} disciplines refer to. *)

  val name : t -> string

  val lock : t -> unit

  val unlock : t -> unit

  val with_ : t -> (unit -> 'a) -> 'a
  (** [with_ l f] runs [f] with [l] held; always releases ([Fun.protect]). *)

  val wait : Condition.t -> t -> unit
  (** [Condition.wait] through the instrumentation: the implicit release
      and re-acquire get their happens-before edges. *)
end

val spawn : (unit -> 'a) -> 'a Domain.t
(** [Domain.spawn] with a fork happens-before edge into the child. *)

val join : 'a Domain.t -> 'a
(** [Domain.join] with a join happens-before edge from the child. *)

val publish : unit -> unit
(** Single-flight publication edge, release half: call after finishing a
    result that another domain will consume without a common lock. *)

val consume : unit -> unit
(** Single-flight publication edge, acquire half: call before using a
    result published by {!publish}. *)

(** A detected violation. *)
type report = {
  r_loc : string;  (** declared location name *)
  r_kind : [ `Lockset | `Race ];
  r_msg : string;  (** human-readable one-liner *)
  r_site_a : string;  (** earlier conflicting access site ("" if none) *)
  r_site_b : string;  (** the access that triggered the report *)
}

val report_to_string : report -> string

val report_count : unit -> int
(** Total reports since the last {!reset} (including deduplicated ones
    beyond the ring capacity). *)

val take_reports : unit -> report list
(** Drain pending reports, oldest first. *)

val reset : unit -> unit
(** Clear reports and dedup state (not clocks); call between runs. *)
