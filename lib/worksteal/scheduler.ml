(* A work-stealing task scheduler in the style of Arora, Blumofe and
   Plaxton [4] — the application domain the paper cites for deques
   ("currently used in load balancing algorithms").  Each worker owns a
   deque of tasks: it pushes and pops its own bottom end (LIFO, for
   locality) and steals from a victim's top end (FIFO, for load
   spread).  Global termination is detected with a pending-task
   counter: it is incremented before a task becomes visible and
   decremented after the task body finishes, so it can only reach zero
   when no task is queued or running.

   Two robustness layers ride on top of the classic design:

   - a per-task exception barrier: a task body that raises no longer
     kills its worker domain (which would strand the pending counter
     and hang every other worker); the exception is counted, the first
     one is re-raised by [run] after all domains have joined;

   - a supervised mode ([run_supervised]) tolerating fail-stop worker
     deaths ({!Harness.Crash}): the {!Supervisor} monitor detects dead
     or silent workers and fences them, this module drains their deques
     from the thief end into fresh deques owned by replacements, and
     the monitor reconciles the pending counter once the units lost
     with the dead workers are provably the only thing keeping it
     above zero. *)

module Make (D : Worksteal_intf.WORKSTEAL_DEQUE) :
  Worksteal_intf.SCHEDULER = struct
  type pool = {
    deques : task D.t array;
        (* thieves' view: a slot's deque is swapped when the slot is
           replaced; both old and new values are valid deques, so racy
           reads stay safe *)
    pending : int Atomic.t;
    workers : int;
    capacity : int;  (* per-deque capacity, for replacement deques *)
    raised : int Atomic.t;  (* task bodies that raised *)
    first_error : exn option Atomic.t;
        (* first exception a task body raised, re-raised by [run] *)
    wd : Harness.Watchdog.t option;
  }

  and ctx = {
    pool : pool;
    worker : int;
    rng : Dcas.Splitmix.t;
    deque : task D.t;
        (* the deque this worker started with.  It owns that deque's
           push/pop end for life and never re-reads [pool.deques], so
           once fenced it cannot touch its replacement's deque. *)
    w : unit Supervisor.worker;
  }

  and task = ctx -> unit

  let deque_name = D.name
  let worker ctx = ctx.worker
  let rng ctx = ctx.rng

  (* Run a task body and retire it, behind the exception barrier.  A
     raising task is a task bug, not a scheduler failure: count it,
     remember the first exception for [run] to re-raise, and retire
     the task normally so [pending] still drains.  {!Harness.Crash.Died}
     is the one exception that must NOT be caught: it is a fail-stop
     fault — the domain dies here, the task's pending unit is written
     off later by the supervisor's reconciliation. *)
  let execute ctx (t : task) =
    let w = ctx.w in
    Atomic.set w.busy true;
    (try t ctx with
    | Harness.Crash.Died as e -> raise e
    | e ->
        ignore (Atomic.compare_and_set ctx.pool.first_error None (Some e));
        Atomic.incr ctx.pool.raised);
    Atomic.incr w.executed;
    Atomic.set w.busy false;
    Atomic.decr ctx.pool.pending;
    (* the watchdog heartbeat is per completed task, not per loop
       iteration: idle steal-spinning must not mask a genuine stall *)
    match ctx.pool.wd with
    | None -> ()
    | Some wd -> Harness.Watchdog.tick wd ~tid:ctx.worker

  (* The fence.  Once the monitor has fenced this worker, its slot
     belongs to a replacement and the monitor has drained this deque
     from the thief end.  A push that raced the drain was either seen
     by it or is still here, so pop the deque dry and run what is
     found inline: every task reaches exactly one of the two. *)
  let rec give_back ctx =
    match D.pop ctx.deque with
    | Some t ->
        execute ctx t;
        give_back ctx
    | None -> ()

  let spawn ctx t =
    Atomic.incr ctx.pool.pending;
    Atomic.incr ctx.w.spawned;
    if not (D.push ctx.deque t) then execute ctx t
    else if Atomic.get ctx.w.fenced then give_back ctx

  (* One full steal sweep over every other worker's deque, starting at
     a random victim for fairness; the first victim that has a task
     gives up its oldest.  Returning [None] certifies that a complete
     pass found every deque empty — the certificate the supervisor's
     quiescence tracker counts (see {!Supervisor}); a single random
     victim probe could miss a queued task forever. *)
  let steal_scan ctx =
    let n = ctx.pool.workers in
    if n <= 1 then None
    else begin
      let start = Dcas.Splitmix.int ctx.rng ~bound:n in
      let rec go k =
        if k >= n then None
        else
          let v = (start + k) mod n in
          if v = ctx.worker then go (k + 1)
          else
            match D.steal ctx.pool.deques.(v) with
            | None -> go (k + 1)
            | found -> found
      in
      go 0
    end

  let worker_loop ctx =
    let w = ctx.w in
    let rec loop () =
      Atomic.incr w.ticks;
      if Atomic.get w.fenced then give_back ctx
      else
        match D.pop ctx.deque with
        | Some t ->
            execute ctx t;
            loop ()
        | None ->
            if Atomic.get ctx.pool.pending = 0 then ()
            else begin
              (* a stolen task is already counted in [pending]; a fence
                 raised while it runs is seen at the loop head, before
                 this worker could scan again *)
              (match steal_scan ctx with
              | None ->
                  Atomic.incr w.scans;
                  Domain.cpu_relax ()
              | Some t -> execute ctx t);
              loop ()
            end
    in
    loop ()

  let make_pool ?wd ~workers ~capacity () =
    {
      deques = Array.init workers (fun _ -> D.create ~capacity ());
      pending = Atomic.make 0;
      workers;
      capacity;
      raised = Atomic.make 0;
      first_error = Atomic.make None;
      wd;
    }

  let make_ctx pool ~rng ~slot =
    let w = Supervisor.worker ~slot ~certifies:true () in
    let rng = Dcas.Splitmix.split rng in
    { pool; worker = slot; rng; deque = pool.deques.(slot); w }

  let check_args ~who ~workers =
    if workers < 1 then
      invalid_arg (Printf.sprintf "Scheduler.%s: workers must be >= 1" who)

  (* the pool and its initial workers, with the root task seeded on
     worker 0's deque *)
  let setup ?wd ~seed ~workers ~capacity root =
    let master = Dcas.Splitmix.create ~seed in
    let pool = make_pool ?wd ~workers ~capacity () in
    let ctxs =
      List.init workers (fun slot -> make_ctx pool ~rng:master ~slot)
    in
    Atomic.incr pool.pending;
    if not (D.push pool.deques.(0) root) then
      invalid_arg "Scheduler: capacity too small for the root task";
    (master, pool, ctxs)

  let reraise pool =
    match Atomic.get pool.first_error with Some e -> raise e | None -> ()

  let run ?(seed = 0xD0E5) ~workers ~capacity root =
    check_args ~who:"run" ~workers;
    let _, pool, ctxs = setup ~seed ~workers ~capacity root in
    Harness.Runner.join_all
      (List.map (fun ctx -> Domain.spawn (fun () -> worker_loop ctx)) ctxs);
    reraise pool

  (* --- Supervised mode --- *)

  (* Replace a fenced worker: drain its deque from the thief end — safe
     beside its owner's own pops on every adapter, ABP included — and
     hand the tasks to a replacement that owns a fresh deque.  The
     drained tasks are already counted in [pending]; the replacement
     pushes them itself, running inline any that do not fit. *)
  let replace pool ~rng ~adopted (old : unit Supervisor.worker) =
    let slot = old.slot in
    let rec drain acc =
      match D.steal pool.deques.(slot) with
      | None -> List.rev acc
      | Some t -> drain (t :: acc)
    in
    let tasks = drain [] in
    adopted := !adopted + List.length tasks;
    pool.deques.(slot) <- D.create ~capacity:pool.capacity ();
    let ctx = make_ctx pool ~rng ~slot in
    ( ctx.w,
      fun () ->
        List.iter
          (fun t -> if not (D.push ctx.deque t) then execute ctx t)
          tasks;
        worker_loop ctx )

  let run_supervised ?(seed = 0xD0E5) ?(config = Supervisor.default)
      ?watchdog ~workers ~capacity root =
    check_args ~who:"run_supervised" ~workers;
    Supervisor.validate config;
    let master, pool, ctxs = setup ?wd:watchdog ~seed ~workers ~capacity root in
    Option.iter Harness.Watchdog.start watchdog;
    let rng = Dcas.Splitmix.split master and adopted = ref 0 in
    let o =
      Supervisor.run config ~pending:pool.pending
        ~quiet:(fun () -> true)
        ~progress:(fun w -> Atomic.get w.executed + Atomic.get w.scans)
        ~replace:(replace pool ~rng ~adopted)
        ~driver:ignore
        (List.map (fun ctx -> (ctx.w, fun () -> worker_loop ctx)) ctxs)
    in
    Option.iter (fun w -> ignore (Harness.Watchdog.stop w)) watchdog;
    reraise pool;
    let sum = Supervisor.sum o in
    {
      Supervisor.spawned = 1 + sum (fun w -> w.spawned);
      executed = sum (fun w -> w.executed);
      raised = Atomic.get pool.raised;
      killed = o.killed;
      presumed_dead = o.presumed_dead;
      adopted = !adopted;
      reconciled = o.reconciled;
      replacements = o.replacements;
      (* survivors must decide every descriptor a dead domain left
         undecided — the deque drain alone only *reads* past them *)
      orphans_helped = Dcas.Mem_lockfree.help_orphans ();
    }
end

(* --- Deque adapters --- *)

(* The ABP deque implements the restricted interface natively. *)
module Abp_adapter : Worksteal_intf.WORKSTEAL_DEQUE = struct
  type 'a t = 'a Baselines.Abp_deque.t

  let name = Baselines.Abp_deque.name
  let create = Baselines.Abp_deque.create

  let push d v =
    match Baselines.Abp_deque.push_bottom d v with `Okay -> true | `Full -> false

  let pop d =
    match Baselines.Abp_deque.pop_bottom d with
    | `Value v -> Some v
    | `Empty -> None

  let steal d =
    match Baselines.Abp_deque.steal_retry d with
    | `Value v -> Some v
    | `Empty -> None
end

(* Any general deque runs the same role by restriction: the owner uses
   the right end, thieves pop the left end. *)
module Restrict (D : Deque.Deque_intf.S) : Worksteal_intf.WORKSTEAL_DEQUE =
struct
  type 'a t = 'a D.t

  let name = D.name
  let create = D.create
  let push d v = match D.push_right d v with `Okay -> true | `Full -> false
  let pop d = match D.pop_right d with `Value v -> Some v | `Empty -> None
  let steal d = match D.pop_left d with `Value v -> Some v | `Empty -> None
end

module Abp_scheduler = Make (Abp_adapter)
module Array_scheduler = Make (Restrict (Deque.Array_deque.Lockfree))
module List_scheduler = Make (Restrict (Deque.List_deque.Lockfree))
module Lock_scheduler = Make (Restrict (Baselines.Lock_deque))
