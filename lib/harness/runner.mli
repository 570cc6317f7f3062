(** Multi-domain benchmark runner: workers line up behind a sense
    barrier, run until a stop flag flips (or for a fixed iteration
    count), and report per-thread operation counts.

    On a single-core machine the domains time-share preemptively;
    throughput measures synchronization cost under contention rather
    than parallel speedup. *)

type result = {
  per_thread : int array;  (** operations completed by each thread *)
  elapsed : float;  (** seconds between barrier release and last join *)
  died : bool array;
      (** which threads exited early via {!Crash.Died} — a fail-stop
          fault under test, not an error; their completed-op counts are
          still in [per_thread] *)
}

val total : result -> int
val throughput : result -> float

val deaths : result -> int
(** Number of threads that died ([Array] count of [died]). *)

val join_all : unit Domain.t list -> unit
(** Join every domain, then re-raise the first exception any of them
    raised (with its backtrace), so a failing domain never leaves the
    others unjoined. *)

val run :
  ?seed:int ->
  ?watchdog:Watchdog.t ->
  threads:int ->
  duration:float ->
  (tid:int -> rng:Dcas.Splitmix.t -> unit) ->
  result
(** Each domain evaluates the body (one logical operation per call)
    repeatedly until [duration] elapses.  Per-thread RNG streams derive
    deterministically from [seed].

    [watchdog], when given, must be created with at least [threads]
    threads and not yet started: the runner starts it when the barrier
    releases, ticks it once per completed body call, and stops it after
    the workers join — read {!Watchdog.stalls} afterwards to learn
    whether it fired.

    A body that raises anything but {!Crash.Died} ends its worker; the
    runner still joins every worker and stops the watchdog, then
    re-raises the first such exception.

    @raise Invalid_argument if [threads < 1]. *)

val run_fixed :
  ?seed:int ->
  ?watchdog:Watchdog.t ->
  threads:int ->
  iters:int ->
  (tid:int -> rng:Dcas.Splitmix.t -> i:int -> unit) ->
  float
(** Every thread performs exactly [iters] operations; returns the
    elapsed wall-clock seconds.  Used where operation counts must
    balance exactly (conservation checks).  [watchdog] and a raising
    body are handled as in {!run}. *)
