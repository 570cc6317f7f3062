(** Non-blocking software DCAS: a two-word CASN built from single-word
    CAS with descriptors and helping (the paper's "non-blocking software
    emulation [8, 30]").

    This is the production memory model: all operations are lock-free.
    Reads never help; they resolve an owning descriptor's status
    in-place.  Writers and DCAS operations help any undecided descriptor
    they encounter, so a preempted operation can never block others.
    Descriptor reclamation relies on the garbage collector, mirroring
    the paper's reliance on GC for list nodes.

    A no-op [dcas] — each new value physically its expected one, as in
    the paper's empty/full confirmations and {!dcas_strong}'s failing
    view — is first tried from reads alone: when [l1] holds a plain
    value block of [o1], [l2] reads [o2], and a re-read of [l1] finds
    the same block, it succeeds with no descriptor, linearized at the
    read of [l2].  A value block comes back to a location only when a
    descriptor that displaced it leaves the logical value unchanged, so
    [l1] held [o1] throughout.  It counts one attempt and one success
    and no descriptor; any other outcome takes the pre-validation and
    descriptor path.  The path takes physical equality for a match, so
    it assumes [equal] is reflexive, as it is for every location the
    deques make. *)

include Memory_intf.MEMORY_CASN
(** [casn entries] atomically compares-and-swaps every entry with
    descriptor-based helping, succeeding iff all expected values match:
    the generalization the paper's Section 6 gestures at, used by the
    3CAS deque extension. *)

val set_dcas2_enabled : bool -> unit
(** Ablation switch (default [true]): with [false], every DCAS/CASN
    slow path builds the generic entry-array descriptor and no release
    is value-elided — the substrate before the flat [Dcas2]
    specialization.  The read-only no-op path builds no descriptor and
    runs either way.  For experiment E21 and tests; do not toggle while
    operations are in flight. *)

(** {2 Fail-stop crash bookkeeping}

    Hooks for {!Harness.Crash} and experiment E22.  Every descriptor
    records the domain id of its initiator; a domain {!mark_dead}ed
    before its final operation leaves {e orphaned} descriptors, and
    each one whose status is decided by a {e surviving} helper is
    counted in {!Memory_intf.stats.helped_orphans} — the operational
    content of the paper's claim that a stopped process's in-flight
    DCAS is completed by others.  All checks hide behind armed flags,
    so the fault-free paths are unchanged. *)

val mark_dead : int -> unit
(** [mark_dead id] marks domain [id] (as in [(Domain.self () :> int)])
    dead: descriptors it owns that are decided by other domains from
    now on count as helped orphans.  Call {e before} the domain's
    final, fatal operation so the accounting has no race window. *)

val clear_dead : unit -> unit
(** Empty the dead set (between experiments). *)

val dead_domains : unit -> int list
(** Domain ids currently marked dead. *)

val set_publish_hook : (unit -> unit) -> unit
(** [set_publish_hook f] arms [f] to run each time a domain installs
    its {e own} descriptor on a location — i.e. mid-CASN, after the
    operation has published shared state but before it is decided.
    [f] runs on the installing domain and may raise to simulate a
    crash at exactly that point; helpers working on other domains'
    descriptors never trigger it.  One global hook; the crash layer
    multiplexes per-domain decisions through domain-local state. *)

val clear_publish_hook : unit -> unit
(** Disarm the publish hook. *)

val orphans : unit -> int
(** Number of orphaned descriptors observed so far: descriptors
    published by a domain after it was {!mark_dead}ed.  A killed
    domain publishes at most one (the crash layer kills it at its
    first publish), so this equals the number of mid-CASN deaths. *)

val help_orphans : unit -> int
(** Help every orphaned descriptor to completion on the current
    domain, and return the number of orphans observed (same count as
    {!orphans}).  Idempotent: descriptors already decided — by organic
    helping or a previous call — are left untouched, and the
    [helped_orphans] counter ticks exactly once per descriptor however
    many parties help.  Call from a surviving domain once the dead
    domains' deques are drained, before asserting
    [helped_orphans = orphans ()]. *)
