(** A supervised producer/consumer service over {!Deque.Sharded}
    (experiment E24): M producer domains inject keyed traffic over K
    policy-wrapped shards, N consumer domains drain them, and the
    {!Supervisor} monitor — the loop that also supervises
    {!Scheduler.Make.run_supervised} — fences dead, silent and zombie
    workers and has them replaced, adopting a dead consumer's home
    shard (quarantine, drain into survivors, revive for the
    replacement), and reconciles the pending counter under its
    quiescence certificate.

    The acceptance law, service-wide and fault-storm-proof:

    [spawned = executed + reconciled + shed] and [leftover = 0]

    — a pending unit is granted before each push and returned on an
    honest [`Full], so a death inside any operation strands at most
    one unit, written off only once consumers' full no-find scans
    (which walk every shard, quarantined included) certify that
    nothing live remains.  [shed] is deadline enforcement (E25): ops
    refused at admission, timed out mid-push, or popped past their
    stamped expiry resolve their unit as first-class timed-out
    outcomes that stay on the books.

    An idle consumer parks for at most 0.5ms, and a push that lands
    meanwhile wakes it: it parks at once when its pop found nothing
    and no request is pending, else after 32 consecutive no-finds.

    Zombie detection ([zombie_after]) watches consumers only: an
    open-loop producer between refills legitimately makes no
    progress.  Idle consumers trip neither detector — their empty
    scans advance progress, and their parks are flagged so they
    cannot read as silence.  A fenced worker retires at its next loop
    check, so a woken or cured worker never runs beside its
    replacement and no slot is replaced twice for one failure. *)

type config = {
  shards : int;
  producers : int;
  consumers : int;
  capacity : int;  (** per-shard primary capacity *)
  full : Deque.Policy.full_policy;  (** per-shard full policy *)
  rate : float;
      (** per-producer open-loop arrivals per second; [<= 0.] = closed
          loop (inject as fast as the service absorbs) *)
  burst : int;  (** arrivals released per token-bucket refill *)
  urgent_share : float;  (** fraction of pushes entering the left end *)
  deadline : float option;
      (** per-request budget, seconds: bounds the push call, stamps
          the item with an absolute expiry, and sheds it at dequeue
          once exceeded *)
  admission : bool;
      (** refuse requests at enqueue when the home shard's observed
          p99 sojourn already exceeds [deadline]
          ({!Deque.Sharded.Make.admit}); no-op without a deadline *)
  sup : Supervisor.config;
  seed : int;
}

val default : config
(** 4 shards, 2+2 workers, Spill shards, closed loop, 10% urgent.
    Routing keys are drawn from [\[0, 1024)]; a consumer whose home
    shard is empty steals one item in place. *)

val validate : config -> unit
(** @raise Invalid_argument on non-positive counts, [urgent_share]
    outside [0,1], or an invalid supervisor config. *)

(** What a run did.  Each request outcome is counted once: the
    workers count granted units, serves, refusals, sheds, timeouts and
    empty scans; landings and per-shard serves come from
    {!Deque.Sharded.Make.stats}; {!Deque.Policy} counts nothing. *)
type report = {
  spawned : int;  (** pending units granted to pushes *)
  executed : int;  (** pops served within deadline *)
  reconciled : int;  (** phantom units written off at quiescence *)
  shed_admission : int;
      (** ops refused at enqueue by admission control (unit retained) *)
  shed_expired : int;
      (** ops timed out with their unit retained: the push ran out of
          budget, or the item was popped past its stamped expiry *)
  leftover : int;  (** items found by the final quiescent drain *)
  pushed_ok : int;  (** pushes that landed, as {!Deque.Sharded} counts them *)
  push_full : int;
  timeouts : int;  (** push/pop calls that ran out of deadline *)
  empty_scans : int;  (** consumers' full no-find scans *)
  overshoot_max_ns : int;
      (** worst served-op completion past its stamped expiry; expired
          items are shed at dequeue, so anything beyond a scheduling
          epsilon is an enforcement bug — the E25 gate *)
  killed : int;  (** workers lost to {!Harness.Crash.Died} *)
  presumed_dead : int;  (** silent workers replaced without certificate *)
  zombies_fenced : int;
      (** consumers fenced by progress-based zombie detection *)
  replacements : int;
  adoptions : int;  (** shard quarantine+drain+revive cycles *)
  adopted_items : int;
  orphans_helped : int;
  recoveries : float list;
      (** seconds from detection to replacement running, per event *)
  per_shard_popped : int array;
      (** external serves per shard, as {!Deque.Sharded} counts them —
          E24's imbalance reads them through
          {!Harness.Metrics.Starvation} *)
  elapsed : float;
}

val shed : report -> int
(** [shed_admission + shed_expired] — ops resolved as timed out with
    their spawned unit retained. *)

val conserved : report -> bool
(** [spawned = executed + reconciled + shed && leftover = 0] — the
    E24/E25 acceptance predicate. *)

val pp_report : Format.formatter -> report -> unit

module Make (D : Deque.Deque_intf.S) : sig
  module S : module type of Deque.Sharded.Make (D)

  val run :
    ?config:config ->
    ?on_push:(tid:int -> ns:float -> Deque.Policy.push_outcome -> unit) ->
    ?on_pop:(tid:int -> ns:float -> int Deque.Policy.pop_outcome -> unit) ->
    ?driver:(unit -> unit) ->
    duration:float ->
    unit ->
    report
  (** Run the service for [duration] seconds of injection (values are
      ints: each producer pushes its own send counter).  [on_push] /
      [on_pop] observe every operation with its wall-clock latency in
      nanoseconds — the soaks' histogram feed; they run on the worker
      domains, so they must be thread-safe and cheap.  [driver], when
      given, runs on the calling domain {e while traffic flows} and
      replaces the default [sleepf duration] — the E24/E25 soak runs a
      {!Harness.Storm} schedule there; its return stops the producers,
      after which the run drains, reconciles and joins.  If [driver]
      raises, the producers stop just the same and [run] re-raises
      once every worker and the monitor have been joined.

      A run holds one pipe (two file descriptors) while it runs, the
      consumers' wake path; it is closed on every exit.

      Workers {!Harness.Fault.enroll} under their slot id (producers
      first, then consumers) and poll {!Harness.Stall.Zombie} under the
      same id, so callers can target kills, freezes and zombifications
      at specific roles; they reach the injectors only when [D] runs
      over {!Harness.Fault.Mem}.  Stalled workers are caught by the
      supervisor's silence detector ([config.sup]). *)
end

module Array_service : module type of Make (Deque.Array_deque.Lockfree)
