(** Bounded systematic exploration of thread interleavings — the
    executable face of the paper's Section 5 obligations.

    Threads run under effect handlers; every {!Mem_model} operation
    yields, and the explorer chooses which thread performs the next
    atomic step.  Because OCaml continuations are one-shot, the
    explorer is stateless (CHESS-style): it re-executes the scenario
    from scratch for every schedule, enumerating schedules by DFS over
    the previous run's decision points.

    Every completed schedule is checked for linearizability against the
    sequential oracle; the scenario's invariant (when present) is
    evaluated after every shared-memory step of every schedule. *)

exception Step_limit
exception Invariant_violation of string

type run_report = {
  history : (int Spec.Op.op, int Spec.Op.res) Spec.History.entry array;
  steps : int;
  decisions : (int list * int) list;
      (** reversed stack of (enabled threads, chosen position) *)
}

val run_schedule :
  ?max_steps:int ->
  ?frozen:(int -> bool) ->
  Scenario.t ->
  decide:(int -> int list -> int) ->
  run_report
(** Execute one schedule.  [decide depth enabled] returns the
    position within [enabled] to run next.  [frozen] threads are never
    scheduled; the run ends when every unfrozen thread has finished.

    @raise Step_limit if the schedule exceeds [max_steps].
    @raise Invariant_violation if the scenario's invariant fails. *)

type failure = {
  schedule : int list;  (** thread ids in execution order *)
  reason : string;
  pretty_history : string;
}

type outcome = {
  schedules : int;
  exhaustive : bool;  (** [false] if [max_schedules] was hit *)
  error : failure option;
}

val pp_outcome : Format.formatter -> outcome -> unit

val pretty_history :
  (int Spec.Op.op, int Spec.Op.res) Spec.History.entry array -> string
(** Render a run's history for reports and debugging. *)

val schedule_of_decisions : (int list * int) list -> int list
(** Thread ids in execution order, from a run's (reversed) decision
    stack. *)

val check_history : Scenario.t -> run_report -> (unit, string) result
(** Check a completed run against the sequential deque oracle — the
    shared linearizability obligation of the DFS explorer and the
    randomized fuzzer. *)

val explore :
  ?max_steps:int ->
  ?max_schedules:int ->
  ?check:[ `Linearizability | `None ] ->
  ?on_schedule:(run_report -> unit) ->
  Scenario.t ->
  outcome
(** Exhaustive DFS over all interleavings (up to [max_schedules]).
    [on_schedule] observes every completed run, e.g. to aggregate
    memory statistics per schedule. *)

val check_nonblocking :
  ?max_steps:int -> Scenario.t -> victim:int -> (int, int) result
(** Freeze [victim] after each of its reachable step counts (0, 1, …,
    up to its greedy completion) and require all other threads to
    finish anyway — the empirical face of the lock-freedom theorems.
    [Ok n] reports the number of stall points exercised; [Error j] the
    first stall point at which another thread failed to complete. *)

val check_crash :
  ?max_steps:int -> Scenario.t -> victim:int -> (int, int) result
(** Fail-stop crash check (experiment E22): kill [victim] for good
    after each of its reachable step counts and verify {e recovery},
    not just progress — the survivors must complete, then a survivor
    drains the structure to empty (helping any descriptor the victim
    left undecided, the model-level orphan-helping path), the
    representation invariant must hold afterwards, and the drained
    values must balance the completed operations under crash-commit
    uncertainty: the victim's single in-flight operation may or may
    not have taken effect, everything else conserves exactly.  [Ok n]
    reports the number of crash points exercised; [Error j] the first
    crash point at which recovery failed.

    @raise Invalid_argument if [victim] is out of range. *)
