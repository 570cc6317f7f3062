(* Interfaces of the work-stealing substrate.

   WORKSTEAL_DEQUE is the restricted deque shape of Arora, Blumofe and
   Plaxton [4]: the owner pushes and pops one end, thieves pop the
   other.  The ABP baseline implements it natively with CAS only; the
   paper's general deques implement it by restriction (experiment E8
   compares the two inside the same scheduler). *)

module type WORKSTEAL_DEQUE = sig
  type 'a t

  val name : string
  val create : capacity:int -> unit -> 'a t

  val push : 'a t -> 'a -> bool
  (** Owner only.  [false] means the deque is full. *)

  val pop : 'a t -> 'a option
  (** Owner only. *)

  val steal : 'a t -> 'a option
  (** Any thread. *)

  val steal_batch : 'a t -> max:int -> 'a list
  (** Any thread: take up to [max] tasks from the thief end in one go,
      oldest first.  Deques with native batched operations (the array
      deque) commit the whole batch at a single linearization point;
      the others take what a sequence of single steals would.  [steal]
      is the [max = 1] special case. *)
end

module type SCHEDULER = sig
  type ctx
  (** A worker's execution context, passed to every task. *)

  val worker : ctx -> int
  (** Index of the worker currently running the task. *)

  val rng : ctx -> Dcas.Splitmix.t
  (** The worker's deterministic RNG stream. *)

  val spawn : ctx -> (ctx -> unit) -> unit
  (** Make a task available for execution (possibly inline if the
      worker's deque is full). *)

  val run :
    ?seed:int ->
    ?steal_batch:int ->
    workers:int ->
    capacity:int ->
    (ctx -> unit) ->
    unit
  (** Run the root task to global quiescence on [workers] domains, each
      owning a deque of [capacity] tasks.  A thief takes up to
      [steal_batch] tasks per steal (default 8): it runs the first and
      re-queues the rest on its own deque, amortizing the steal's
      synchronization over the batch; [steal_batch = 1] is classic
      steal-one.

      A task body that raises does not kill its worker: the exception
      is caught by a per-task barrier, the task retires normally so
      the pending counter still drains, and the {e first} such
      exception is re-raised after every worker domain has joined.
      Fail-stop deaths ({!Harness.Crash.Died}) are NOT tolerated here
      — a killed worker strands the pending counter and the run hangs;
      use [run_supervised] for crash-injected workloads. *)

  val run_supervised :
    ?seed:int ->
    ?steal_batch:int ->
    ?config:Supervisor.config ->
    ?watchdog:Harness.Watchdog.t ->
    workers:int ->
    capacity:int ->
    (ctx -> unit) ->
    Supervisor.report
  (** Like [run], but crash-fault tolerant: workers run under the
      {!Supervisor} monitor, enrolled with {!Harness.Crash} and
      {!Harness.Stall.Freezer} under their worker index.  When a
      worker dies ({!Harness.Crash.Died}), goes silent past
      [config.silence_after] or turns zombie past
      [config.zombie_after], the monitor fences it, this scheduler
      drains its deque from the thief end, and a replacement adopts
      the drained tasks on a fresh deque.  A fenced worker that is
      still alive never touches the replacement's deque: it pushes
      only to its own, re-checks the fence after every spawn's push,
      and once fenced pops its deque dry, runs what it finds inline and
      retires — so a push that raced the drain is either drained or
      taken back.  Pending units irrecoverably lost with a death — the
      task it was executing, a child mid-push, a stolen batch in hand;
      at most [steal_batch + 2] per death — are written off
      ([reconciled]) once the monitor's quiescence certificate shows
      no live task remains anywhere.  Every terminating run satisfies
      {!Supervisor.conserved}: [spawned = executed + reconciled].

      [watchdog], when given, must cover [workers] threads and not yet
      be started: it is started before the workers spawn, ticked once
      per {e completed task}, and stopped after the run — so a hang
      (which supervision exists to prevent) surfaces as a stall report
      rather than silence.

      The supervisor also helps every orphaned descriptor a dead
      domain left mid-CASN to completion
      ({!Dcas.Mem_lockfree.help_orphans}) and reports the count. *)

  val deque_name : string
end
