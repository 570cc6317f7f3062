(** Fail-stop crash injection: enrolled victim domains ({!Fault.enroll})
    die for good at an instrumented shared-memory point of {!Fault.Mem}
    — including {e mid-CASN}, with a published undecided descriptor
    that survivors must help to completion.  The permanent sibling of
    {!Stall.Freezer}'s freezes, for experiment E22, the supervised
    scheduler and service ({!Worksteal.Supervisor}) and the soaks. *)

exception Died
(** Raised on the victim domain at its death point.  Anything driving
    crash-injected workers must treat a worker raising [Died] as a
    fail-stop fault, not an error (see {!Runner} and
    [Worksteal.Supervisor]). *)

type mode = [ `At_point | `Mid_casn ]
(** Where a targeted death lands: [`At_point] at the next instrumented
    access; [`Mid_casn] inside the victim's next DCAS/CASN, after its
    descriptor is published and before it is decided (falls back to
    the operation boundary when the operation never publishes, e.g.
    fast-fail pre-validation, or when the bottom substrate is not
    {!Dcas.Mem_lockfree}). *)

val kill : ?mode:mode -> tid:int -> unit -> unit
(** Request a targeted death: the domain enrolled as [tid] dies at its
    next eligible instrumented point (default mode [`Mid_casn]: its
    next DCAS-shaped operation).  Deterministic — used by the
    orphaned-descriptor tests and the storm schedules.

    @raise Invalid_argument if [tid] is outside [\[0, Fault.max_slots)]. *)

val configure :
  ?prob:float -> ?mid_casn_prob:float -> ?max_kills:int -> seed:int -> unit -> unit
(** Arm probabilistic deaths: each enrolled domain draws a kill
    verdict with probability [prob] at every instrumented point, from
    a per-domain SplitMix stream derived from [seed] (replayable, as
    in {!Chaos}).  A kill landing on a DCAS-shaped operation
    dies mid-CASN with probability [mid_casn_prob] (default 1), at the
    point otherwise.  At most [max_kills] probabilistic deaths occur
    in total, and each [tid] dies at most once either way. *)

val disarm : unit -> unit
(** Stop drawing probabilistic deaths (targeted requests survive). *)

val kills : unit -> int
(** Domains killed so far (targeted and probabilistic). *)

val mid_casn_kills : unit -> int
(** How many of those died mid-CASN with a published descriptor — the
    expected value of [helped_orphans] once survivors have helped
    every orphan ({!Dcas.Mem_lockfree.help_orphans}). *)

val killed : tid:int -> bool
