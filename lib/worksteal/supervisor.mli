(** The supervisor of crash-fault-tolerant work stealing
    ({!Scheduler.Make.run_supervised}) and of the sharded service
    ({!Shard_service.Make.run}): policy knobs, the run report, the
    worker record both callers share, and the one monitor loop.

    Fault model: fail-stop ({!Harness.Crash}) — a worker dies for good
    at a shared-memory point, possibly mid-CASN with a published
    undecided descriptor — plus workers that stall or stop working
    while alive.  The monitor fences such a worker before the caller
    replaces its slot, so a worker presumed dead that wakes up never
    runs beside its replacement.  What a death can actually lose is the
    task it was executing, a child mid-push, and a stolen batch in
    hand — at most [steal_batch + 2] pending units per death, written
    off by reconciliation once provably phantom. *)

type config = {
  interval : float;
      (** monitor poll period in seconds (default 2ms); also the sweep
          granularity of the quiescence window *)
  silence_after : float;
      (** presume a worker dead when its tick counter has not moved
          for this long (default 0.25s), unless it is parked in a
          deliberate idle backoff; [0.] disables silence detection —
          deaths certified by {!Harness.Crash.Died} still trigger
          replacement.  A worker presumed dead by mistake is fenced:
          it retires at its next check and gives back anything it
          pushed after the replacement took over. *)
  zombie_after : float;
      (** fence a {e zombie} — a certifying worker whose tick counter
          keeps moving while its progress (operations resolved plus
          no-find scans) stays frozen for this long (default [0.] =
          disabled).  Complements [silence_after]: silence catches
          frozen ticks, zombie detection catches moving ticks with
          frozen progress ({!Harness.Stall.Zombie}), and an idle
          worker trips neither because its empty scans keep progress
          moving.  A scheduler worker's ticks and progress move
          together, so on the scheduler only a loop that spins without
          executing or scanning could trip it. *)
  quiet_sweeps : int;
      (** consecutive frozen sweeps required before reconciling
          (default 3) *)
}

val default : config

val validate : config -> unit
(** @raise Invalid_argument on non-positive [interval], negative
    [silence_after] or [zombie_after], or [quiet_sweeps < 1]. *)

type report = {
  spawned : int;  (** tasks made pending, root included *)
  executed : int;  (** task bodies run to completion (or caught raise) *)
  raised : int;  (** bodies that raised — caught by the per-task barrier *)
  killed : int;  (** workers that died via {!Harness.Crash.Died} *)
  presumed_dead : int;  (** silent workers replaced without a certificate *)
  adopted : int;  (** tasks drained from replaced workers' deques *)
  reconciled : int;  (** phantom pending units written off at quiescence *)
  replacements : int;  (** replacement workers the supervisor spawned *)
  orphans_helped : int;
      (** orphaned descriptors helped to completion at the end of the
          run ({!Dcas.Mem_lockfree.help_orphans}) *)
}

val conserved : report -> bool
(** Task conservation: [spawned = executed + reconciled].  Holds for
    every terminating supervised run; the E22 acceptance predicate. *)

(** {2 Supervised workers} *)

type 'a worker = {
  slot : int;
      (** the slot this worker fills; also its {!Harness.Crash} and
          {!Harness.Stall.Freezer} id *)
  certifies : bool;
      (** its full no-find scans certify quiescence, and it is watched
          for zombies: every scheduler worker, the service's consumers *)
  own : 'a;  (** the caller's own per-worker state *)
  busy : bool Atomic.t;  (** inside a task body or an operation *)
  ticks : int Atomic.t;  (** liveness heartbeat, bumped every loop *)
  scans : int Atomic.t;  (** completed full no-find scans *)
  spawned : int Atomic.t;  (** pending units this worker granted *)
  executed : int Atomic.t;  (** tasks run / requests served *)
  idling : bool Atomic.t;
      (** parked in a deliberate idle backoff, which is not silence *)
  fenced : bool Atomic.t;
      (** set by the monitor before the slot is replaced; the worker
          must retire at its next check and leave its slot's shared
          state to the replacement *)
  died : bool Atomic.t;  (** exited via {!Harness.Crash.Died} *)
  retired : bool Atomic.t;  (** the worker body finished, any reason *)
}

val worker : slot:int -> certifies:bool -> 'a -> 'a worker
(** A fresh record, all counters zero; the atomics are padded. *)

type 'a outcome = {
  workers : 'a worker list;  (** every worker, replacements included *)
  killed : int;  (** workers that died via {!Harness.Crash.Died} *)
  presumed_dead : int;  (** silent workers fenced and replaced *)
  zombies_fenced : int;  (** zombies fenced and replaced *)
  replacements : int;
  reconciled : int;  (** pending units written off at quiescence *)
  recoveries : float list;
      (** seconds from detection to replacement running, per event,
          oldest first *)
}

val sum : 'a outcome -> ('a worker -> int Atomic.t) -> int
(** A counter summed over every worker of the run. *)

val run :
  config ->
  pending:int Atomic.t ->
  quiet:(unit -> bool) ->
  progress:('a worker -> int) ->
  replace:('a worker -> 'a worker * (unit -> unit)) ->
  driver:(unit -> unit) ->
  ('a worker * (unit -> unit)) list ->
  'a outcome
(** [run config ~pending ~quiet ~progress ~replace ~driver workers]
    spawns one domain per [(worker, loop)] — slot [i] at index [i] —
    then the monitor domain, then runs [driver] on the calling domain
    and joins everything.  Each worker domain enrolls with
    {!Harness.Crash} and {!Harness.Stall.Freezer} under its slot, runs
    its loop, and marks itself [died] on {!Harness.Crash.Died} and
    [retired] on any exit.  The monitor, never enrolled and hence
    immortal, sweeps every [config.interval]:

    - {b detect} the slot owner that died, went silent, or turned
      zombie ([progress] is the zombie detector's measure; only
      certifying workers are watched);
    - {b fence} it, then call [replace] with it, which prepares the
      slot's takeover and returns the replacement worker and loop;
      the monitor spawns it on a fresh domain;
    - {b certify} quiescence: [pending], [executed] and [spawned]
      frozen and no live worker busy for [quiet_sweeps] sweeps, and
      every live certifying worker completed two full no-find scans
      inside that window (two completions inside the window imply one
      scan ran entirely within it, and a full scan over frozen queues
      cannot miss a queued task);
    - {b reconcile}: once certified, and only while [quiet ()] holds
      (no new work can arrive), write the leftover [pending] off.

    It stops when [pending] is zero, [quiet ()] holds and every worker
    has retired, then joins every replacement.  When [driver] raises,
    [run] still joins every worker and the monitor before it re-raises,
    so the caller must let its workers finish on that path too (the
    service sets its stop flag in a [Fun.protect ~finally]). *)
