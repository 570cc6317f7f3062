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
    steal_max : int;  (* tasks taken per steal; 1 = classic steal-one *)
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
     a random victim for fairness.  Returning [] certifies that a
     complete pass found every deque empty — the certificate the
     supervisor's quiescence tracker counts (see {!Supervisor}); a
     single random victim probe could miss a queued task forever. *)
  let steal_scan ctx =
    let n = ctx.pool.workers in
    if n <= 1 then []
    else begin
      let start = Dcas.Splitmix.int ctx.rng ~bound:n in
      let rec go k =
        if k >= n then []
        else
          let v = (start + k) mod n in
          if v = ctx.worker then go (k + 1)
          else
            match D.steal_batch ctx.pool.deques.(v) ~max:ctx.pool.steal_max with
            | [] -> go (k + 1)
            | ts -> ts
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
              (match steal_scan ctx with
              | [] ->
                  Atomic.incr w.scans;
                  Domain.cpu_relax ()
              | t :: rest ->
                  (* stolen tasks are already counted in [pending], so
                     they are re-queued directly, not via [spawn]; one
                     that does not fit runs inline rather than be lost.
                     A fence raised meanwhile is seen at the loop head,
                     before this worker could scan again. *)
                  List.iter
                    (fun t' -> if not (D.push ctx.deque t') then execute ctx t')
                    rest;
                  execute ctx t);
              loop ()
            end
    in
    loop ()

  let make_pool ?wd ~workers ~capacity ~steal_max () =
    {
      deques = Array.init workers (fun _ -> D.create ~capacity ());
      pending = Atomic.make 0;
      workers;
      steal_max;
      capacity;
      raised = Atomic.make 0;
      first_error = Atomic.make None;
      wd;
    }

  let make_ctx pool ~rng ~slot =
    let w = Supervisor.worker ~slot ~certifies:true () in
    let rng = Dcas.Splitmix.split rng in
    { pool; worker = slot; rng; deque = pool.deques.(slot); w }

  let check_args ~who ~workers ~steal_batch =
    if workers < 1 then
      invalid_arg (Printf.sprintf "Scheduler.%s: workers must be >= 1" who);
    if steal_batch < 1 then
      invalid_arg (Printf.sprintf "Scheduler.%s: steal_batch must be >= 1" who)

  (* the pool and its initial workers, with the root task seeded on
     worker 0's deque *)
  let setup ?wd ~seed ~steal_batch ~workers ~capacity root =
    let master = Dcas.Splitmix.create ~seed in
    let pool = make_pool ?wd ~workers ~capacity ~steal_max:steal_batch () in
    let ctxs =
      List.init workers (fun slot -> make_ctx pool ~rng:master ~slot)
    in
    Atomic.incr pool.pending;
    if not (D.push pool.deques.(0) root) then
      invalid_arg "Scheduler: capacity too small for the root task";
    (master, pool, ctxs)

  let reraise pool =
    match Atomic.get pool.first_error with Some e -> raise e | None -> ()

  let run ?(seed = 0xD0E5) ?(steal_batch = 8) ~workers ~capacity root =
    check_args ~who:"run" ~workers ~steal_batch;
    let _, pool, ctxs = setup ~seed ~steal_batch ~workers ~capacity root in
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
      match D.steal_batch pool.deques.(slot) ~max:pool.steal_max with
      | [] -> acc
      | ts -> drain (acc @ ts)
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

  let run_supervised ?(seed = 0xD0E5) ?(steal_batch = 8)
      ?(config = Supervisor.default) ?watchdog ~workers ~capacity root =
    check_args ~who:"run_supervised" ~workers ~steal_batch;
    Supervisor.validate config;
    let master, pool, ctxs =
      setup ?wd:watchdog ~seed ~steal_batch ~workers ~capacity root
    in
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

  (* The ABP deque can only steal one item per CAS; a batch is a
     sequence of single steals (each its own linearization point). *)
  let steal_batch d ~max =
    let rec go n acc =
      if n >= max then List.rev acc
      else
        match steal d with
        | Some v -> go (n + 1) (v :: acc)
        | None -> List.rev acc
    in
    go 0 []
end

(* Any general deque runs the same role by restriction: the owner uses
   the right end, thieves pop the left end. *)
module Restrict (D : Deque.Deque_intf.S) : Worksteal_intf.WORKSTEAL_DEQUE =
struct
  type 'a t = 'a D.t

  module B = Deque.Deque_intf.Batch (D)

  let name = D.name
  let create = D.create
  let push d v = match D.push_right d v with `Okay -> true | `Full -> false
  let pop d = match D.pop_right d with `Value v -> Some v | `Empty -> None
  let steal d = match D.pop_left d with `Value v -> Some v | `Empty -> None
  let steal_batch d ~max = B.pop_many_left d max
end

module Abp_scheduler = Make (Abp_adapter)

(* The array deque restricts like any deque but steals batches with its
   native atomic [pop_many_left]: one CASN takes the whole batch. *)
module Array_deque_adapter : Worksteal_intf.WORKSTEAL_DEQUE = struct
  module A = Deque.Array_deque.Lockfree

  type 'a t = 'a A.t

  let name = A.name
  let create = A.create
  let push d v = match A.push_right d v with `Okay -> true | `Full -> false
  let pop d = match A.pop_right d with `Value v -> Some v | `Empty -> None
  let steal d = match A.pop_left d with `Value v -> Some v | `Empty -> None
  let steal_batch d ~max = A.pop_many_left d max
end

module List_deque_adapter = Restrict (struct
  include Deque.List_deque.Lockfree

  let name = Deque.List_deque.Lockfree.name
end)

module Lock_deque_adapter = Restrict (struct
  include Baselines.Lock_deque

  let name = Baselines.Lock_deque.name
end)

(* The Sundell–Tsigas single-word-CAS deque restricts like any general
   deque; steal_batch is the generic one-at-a-time fallback (each steal
   its own marking CAS — there is no multi-word primitive to batch
   under). *)
module St_deque_adapter = Restrict (struct
  include Baselines.St_deque

  let name = Baselines.St_deque.name
end)

module Array_scheduler = Make (Array_deque_adapter)
module List_scheduler = Make (List_deque_adapter)
module Lock_scheduler = Make (Lock_deque_adapter)
module St_scheduler = Make (St_deque_adapter)
