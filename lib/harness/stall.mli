(** Stall injection for the resilience and liveness experiments (E9,
    E14, E19) and the soaks: cooperative self-stalls (a thread arranges
    to fall asleep in the middle of its own next operation),
    adversarial cross-domain freezes (a controller suspends victim
    domains at their next shared-memory access point until thawed) and
    zombies (a victim keeps ticking while doing no work).  Stalls and
    freezes are delivered through {!Fault.Mem}; victims enroll with
    {!Fault.enroll}, and {!Fault.reset} thaws, cures and zeroes every
    counter here. *)

val request : after_ops:int -> duration:float -> unit
(** Arrange for the calling domain to sleep [duration] seconds just
    before its [after_ops]-th subsequent shared-memory operation.

    Requests are domain-local (a staller only ever stalls itself) and
    do not nest or queue: each domain has at most one armed stall, and
    a new [request] overwrites any pending one — the earlier countdown
    is discarded, not resumed after the new stall fires.

    @raise Invalid_argument if [after_ops < 1] or [duration] is
    negative (or NaN). *)

val cancel : unit -> unit
(** Discard the calling domain's pending stall request, if any.
    Idempotent: cancelling with nothing pending is a no-op. *)

val pending : unit -> bool
(** Whether the calling domain has an armed stall request. *)

(** Adversarial cross-domain freezing: the empirical form of the
    paper's "stopped process".  A controller [freeze]s victim [tid],
    which then parks at its next instrumented shared-memory access —
    i.e. mid-operation, holding whatever intermediate state the
    algorithm has published — until [thaw]ed.  Lock-free structures
    must let the surviving domains keep completing operations with up
    to [threads - 1] victims frozen; blocking ones stall system-wide
    (see E19 and [test_lockfree.ml]).  Every [tid] argument must be in
    [\[0, Fault.max_slots)], or [Invalid_argument] is raised. *)
module Freezer : sig
  val freeze : tid:int -> unit
  (** Raise victim [tid]'s freeze flag; it parks at its next
      instrumented shared-memory access and stays parked until thawed. *)

  val thaw : tid:int -> unit
  (** Release victim [tid]. *)

  val thaw_all : unit -> unit

  val frozen_now : unit -> int
  (** Number of domains currently parked at a freeze point. *)

  val freeze_hits : unit -> int
  (** Total number of park events since the last {!Fault.reset}. *)

  val freeze_hits_of : tid:int -> int
  (** Park events of victim [tid] alone — lets a storm schedule verify
      that a specific freeze window landed even when windows overlap. *)
end

(** Zombie injection: the victim stays alive {e and keeps ticking its
    liveness heartbeat} but makes no progress — the failure mode that
    neither crash detection (not dead) nor tick-based silence
    detection (not silent) can see, only progress-based detection
    ({!Worksteal.Supervisor}'s [zombie_after]).

    Unlike the {!Freezer}, zombification is not delivered at
    shared-memory access points (a parked victim would stop ticking
    and look merely silent).  The victim's work loop cooperates: it
    polls {!active} each iteration and, while the flag is up, skips
    the operation, keeps its heartbeat ticking, and records one
    {!bite} — the counter a storm schedule reads to verify the window
    landed.  Slots are the {!Fault} slots the {!Freezer} and {!Crash}
    use. *)
module Zombie : sig
  val zombify : tid:int -> unit
  (** Raise victim [tid]'s zombie flag.

      @raise Invalid_argument if [tid] is outside [\[0, Fault.max_slots)]. *)

  val cure : tid:int -> unit
  (** Lower victim [tid]'s zombie flag; it resumes useful work at its
      next loop iteration (unless it was fenced meanwhile). *)

  val active : tid:int -> bool
  (** Whether [tid]'s flag is up ([false] for out-of-range ids, so
      un-enrolled callers can poll unconditionally). *)

  val bite : tid:int -> unit
  (** Victim-side: record one operation suppressed while zombified. *)

  val bites : unit -> int
  (** Total suppressed operations since the last {!Fault.reset}. *)

  val bites_of : tid:int -> int
end
