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
     deaths ({!Harness.Crash}): a monitor domain detects dead or
     silent workers, drains their deques from the thief end into
     epoch-fenced replacements, and reconciles the pending counter
     once the units lost with the dead workers are provably the only
     thing keeping it above zero (see {!Supervisor}). *)

module Make (D : Worksteal_intf.WORKSTEAL_DEQUE) :
  Worksteal_intf.SCHEDULER = struct
  type pool = {
    deques : task D.t array;
        (* slot contents are swapped on adoption; both old and new
           values are valid deques, so racy reads stay safe *)
    pending : int Atomic.t;
    workers : int;
    steal_max : int;  (* tasks taken per steal; 1 = classic steal-one *)
    capacity : int;  (* per-deque capacity, for replacement deques *)
    epochs : int Atomic.t array;
        (* per-slot adoption epoch: bumped when the slot's deque is
           adopted, so a presumed-dead-but-alive worker (zombie) can
           detect that it no longer owns the slot *)
    first_error : exn option Atomic.t;
        (* first exception a task body raised, re-raised by [run] *)
    wd : Harness.Watchdog.t option;
  }

  (* Per-worker-domain state.  Each spawned domain — initial worker or
     replacement — has its own record; the supervisor reads them to
     detect deaths and silence and to sum progress counters without a
     shared hot counter.  All atomics padded: these sit next to each
     other in the registry. *)
  and wstate = {
    slot : int;  (* deque slot this domain (last) owned *)
    born : int;  (* pool.epochs.(slot) at enrollment; the fence *)
    busy : bool Atomic.t;  (* executing a task body right now *)
    ticks : int Atomic.t;  (* liveness heartbeat, bumped every loop *)
    scans : int Atomic.t;  (* completed full no-find steal sweeps *)
    executed_w : int Atomic.t;
    raised_w : int Atomic.t;
    spawned_w : int Atomic.t;
    died : bool Atomic.t;  (* exited via Crash.Died *)
    retired : bool Atomic.t;  (* worker body finished, any reason *)
  }

  and ctx = {
    pool : pool;
    worker : int;
    rng : Dcas.Splitmix.t;
    ws : wstate;
  }

  and task = ctx -> unit

  let deque_name = D.name
  let worker ctx = ctx.worker
  let rng ctx = ctx.rng

  let make_wstate ~slot ~born =
    {
      slot;
      born;
      busy = Dcas.Padding.make_atomic false;
      ticks = Dcas.Padding.make_atomic 0;
      scans = Dcas.Padding.make_atomic 0;
      executed_w = Dcas.Padding.make_atomic 0;
      raised_w = Dcas.Padding.make_atomic 0;
      spawned_w = Dcas.Padding.make_atomic 0;
      died = Dcas.Padding.make_atomic false;
      retired = Dcas.Padding.make_atomic false;
    }

  (* Has this worker's slot been adopted out from under it?  True only
     for zombies: workers presumed dead (silent) whose deque was handed
     to a replacement.  A zombie must no longer touch the owner end of
     the slot's deque — the replacement owns it. *)
  let zombie ctx = Atomic.get ctx.pool.epochs.(ctx.worker) <> ctx.ws.born

  (* Run a task body and retire it, behind the exception barrier.  A
     raising task is a task bug, not a scheduler failure: count it,
     remember the first exception for [run] to re-raise, and retire
     the task normally so [pending] still drains.  {!Harness.Crash.Died}
     is the one exception that must NOT be caught: it is a fail-stop
     fault — the domain dies here, the task's pending unit is written
     off later by the supervisor's reconciliation. *)
  let execute ctx (t : task) =
    let ws = ctx.ws in
    Atomic.set ws.busy true;
    (try t ctx with
    | Harness.Crash.Died as e -> raise e
    | e ->
        ignore (Atomic.compare_and_set ctx.pool.first_error None (Some e));
        Atomic.incr ws.raised_w);
    Atomic.incr ws.executed_w;
    Atomic.set ws.busy false;
    Atomic.decr ctx.pool.pending;
    (* the watchdog heartbeat is per completed task, not per loop
       iteration: idle steal-spinning must not mask a genuine stall *)
    match ctx.pool.wd with
    | None -> ()
    | Some w -> Harness.Watchdog.tick w ~tid:ctx.worker

  let spawn ctx t =
    Atomic.incr ctx.pool.pending;
    Atomic.incr ctx.ws.spawned_w;
    (* the epoch fence: a zombie's push would land on the replacement's
       deque (owner-end, two owners) or on the drained old one (task
       stranded forever) — run inline instead, which is always sound *)
    if zombie ctx || not (D.push ctx.pool.deques.(ctx.worker) t) then
      execute ctx t

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
    let ws = ctx.ws in
    let rec loop () =
      Atomic.incr ws.ticks;
      let z = zombie ctx in
      match (if z then None else D.pop ctx.pool.deques.(ctx.worker)) with
      | Some t ->
          execute ctx t;
          loop ()
      | None ->
          if Atomic.get ctx.pool.pending = 0 then ()
          else begin
            (match steal_scan ctx with
            | [] ->
                Atomic.incr ws.scans;
                Domain.cpu_relax ()
            | t :: rest ->
                (* stolen tasks are already counted in [pending], so
                   they are re-queued directly, not via [spawn]; one
                   that does not fit — or that a zombie cannot
                   re-queue — runs inline rather than be lost *)
                List.iter
                  (fun t' ->
                    if z || not (D.push ctx.pool.deques.(ctx.worker) t') then
                      execute ctx t')
                  rest;
                execute ctx t);
            loop ()
          end
    in
    loop ()

  (* The body of a worker domain: run the loop, certify a fail-stop
     death, always mark retirement.  [Crash.point] only fires at
     instrumented memory operations, so the handler itself runs in a
     crash-free zone. *)
  let worker_body ctx () =
    (try worker_loop ctx
     with Harness.Crash.Died -> Atomic.set ctx.ws.died true);
    Atomic.set ctx.ws.retired true

  (* Supervised workers enroll with the crash layer under their slot
     id, making them eligible victims; each tid dies at most once, so
     a replacement enrolled under the same slot is never re-killed.
     The supervisor domain never enrolls and is immortal. *)
  let supervised_body ctx () =
    if ctx.worker < Harness.Crash.max_slots then
      Harness.Crash.enroll ~tid:ctx.worker;
    worker_body ctx ()

  let make_pool ?wd ~workers ~capacity ~steal_max () =
    {
      deques = Array.init workers (fun _ -> D.create ~capacity ());
      pending = Atomic.make 0;
      workers;
      steal_max;
      capacity;
      epochs = Array.init workers (fun _ -> Dcas.Padding.make_atomic 0);
      first_error = Atomic.make None;
      wd;
    }

  let check_args ~who ~workers ~steal_batch =
    if workers < 1 then
      invalid_arg (Printf.sprintf "Scheduler.%s: workers must be >= 1" who);
    if steal_batch < 1 then
      invalid_arg (Printf.sprintf "Scheduler.%s: steal_batch must be >= 1" who)

  let seed_root pool root =
    Atomic.incr pool.pending;
    if not (D.push pool.deques.(0) root) then
      invalid_arg "Scheduler: capacity too small for the root task"

  (* Join every spawned domain even when one join raises, then
     re-raise the first failure — a raising domain must not leave its
     siblings unjoined and leaking. *)
  let join_all domains =
    let errs =
      List.filter_map
        (fun d -> try Domain.join d; None with e -> Some e)
        domains
    in
    match errs with [] -> () | e :: _ -> raise e

  let run ?(seed = 0xD0E5) ?(steal_batch = 8) ~workers ~capacity root =
    check_args ~who:"run" ~workers ~steal_batch;
    let master = Dcas.Splitmix.create ~seed in
    let pool = make_pool ~workers ~capacity ~steal_max:steal_batch () in
    let ctxs =
      Array.init workers (fun worker ->
          {
            pool;
            worker;
            rng = Dcas.Splitmix.split master;
            ws = make_wstate ~slot:worker ~born:0;
          })
    in
    (* seed the root task on worker 0's deque *)
    seed_root pool root;
    let domains =
      List.init workers (fun i -> Domain.spawn (worker_body ctxs.(i)))
    in
    join_all domains;
    match Atomic.get pool.first_error with
    | Some e -> raise e
    | None -> ()

  (* --- Supervised mode --- *)

  (* Supervisor-side view of one worker domain, with the silence
     tracking only the (single-threaded) monitor touches. *)
  type tracked = {
    ws : wstate;
    domain : unit Domain.t option;  (* None for initial workers *)
    mutable last_ticks : int;
    mutable last_move : float;
  }

  let sum field tracked =
    List.fold_left (fun n t -> n + Atomic.get (field t.ws)) 0 tracked

  (* Adopt [slot]: fence the (possibly zombie) previous owner, drain
     the abandoned deque from the thief end — safe concurrently with
     live thieves on every adapter — and hand the tasks to a fresh
     replacement worker.  The drained tasks are already counted in
     [pending]; the replacement pushes them itself (it is the owner of
     the fresh deque), running inline any that do not fit. *)
  let adopt pool ~rng ~slot ~now =
    Atomic.incr pool.epochs.(slot);
    let old = pool.deques.(slot) in
    let rec drain acc =
      match D.steal_batch old ~max:(max 1 pool.steal_max) with
      | [] -> acc
      | ts -> drain (acc @ ts)
    in
    let tasks = drain [] in
    let fresh = D.create ~capacity:pool.capacity () in
    pool.deques.(slot) <- fresh;
    let born = Atomic.get pool.epochs.(slot) in
    let ws = make_wstate ~slot ~born in
    let ctx =
      { pool; worker = slot; rng = Dcas.Splitmix.split rng; ws }
    in
    let d =
      Domain.spawn (fun () ->
          if slot < Harness.Crash.max_slots then
            Harness.Crash.enroll ~tid:slot;
          (try
             List.iter
               (fun t -> if not (D.push fresh t) then execute ctx t)
               tasks;
             worker_loop ctx
           with Harness.Crash.Died -> Atomic.set ws.died true);
          Atomic.set ws.retired true)
    in
    ( List.length tasks,
      { ws; domain = Some d; last_ticks = Atomic.get ws.ticks; last_move = now }
    )

  (* The monitor loop, run on its own (never-enrolled, hence immortal)
     domain.  Each sweep: adopt slots whose current owner died or went
     silent, feed the quiescence tracker, reconcile [pending] when it
     certifies that only dead workers' lost units remain. *)
  let supervise pool (config : Supervisor.config) ~rng ~initial =
    let tracked = ref initial in
    (* current owner of each slot, as tracked records *)
    let owners = Array.of_list initial in
    let adopted = ref 0 in
    let reconciled = ref 0 in
    let replacements = ref 0 in
    let presumed = ref 0 in
    let q = Supervisor.quiescence () in
    let finished () =
      Atomic.get pool.pending = 0
      && List.for_all (fun t -> Atomic.get t.ws.retired) !tracked
    in
    while not (finished ()) do
      let now = Unix.gettimeofday () in
      (* adoption: a slot needs a new owner when its current owner has
         a death certificate, or has been silent past the threshold
         (ticks move every loop iteration, so silence means dead-
         without-certificate or frozen; a wrong presumption creates a
         zombie, which the epoch fence defuses) *)
      for slot = 0 to pool.workers - 1 do
        let t = owners.(slot) in
        let dead = Atomic.get t.ws.died in
        let silent =
          config.silence_after > 0.
          && (not (Atomic.get t.ws.retired))
          &&
          let ticks = Atomic.get t.ws.ticks in
          if ticks <> t.last_ticks then begin
            t.last_ticks <- ticks;
            t.last_move <- now;
            false
          end
          else now -. t.last_move >= config.silence_after
        in
        if dead || silent then begin
          if silent && not dead then incr presumed;
          let n, t' = adopt pool ~rng ~slot ~now in
          adopted := !adopted + n;
          incr replacements;
          owners.(slot) <- t';
          tracked := t' :: !tracked
        end
      done;
      (* quiescence: certify that leftover pending units are phantom *)
      let live t =
        (not (Atomic.get t.ws.died)) && not (Atomic.get t.ws.retired)
      in
      let live_tracked = List.filter live !tracked in
      let busy =
        List.exists (fun t -> Atomic.get t.ws.busy) live_tracked
      in
      let scans =
        Array.of_list
          (List.map (fun t -> Atomic.get t.ws.scans) live_tracked)
      in
      let pending = Atomic.get pool.pending in
      let safe =
        Supervisor.observe q ~pending
          ~executed:(sum (fun w -> w.executed_w) !tracked)
          ~spawned:(sum (fun w -> w.spawned_w) !tracked)
          ~busy ~scans ~quiet_sweeps:config.quiet_sweeps
      in
      if safe && Atomic.compare_and_set pool.pending pending 0 then
        reconciled := !reconciled + pending;
      Unix.sleepf config.interval
    done;
    (* replacements retire once pending hits zero; collect them *)
    List.iter
      (fun t -> match t.domain with None -> () | Some d -> Domain.join d)
      !tracked;
    let killed =
      List.fold_left
        (fun n t -> if Atomic.get t.ws.died then n + 1 else n)
        0 !tracked
    in
    {
      Supervisor.spawned = 1 + sum (fun w -> w.spawned_w) !tracked;
      executed = sum (fun w -> w.executed_w) !tracked;
      raised = sum (fun w -> w.raised_w) !tracked;
      killed;
      presumed_dead = !presumed;
      adopted = !adopted;
      reconciled = !reconciled;
      replacements = !replacements;
      (* survivors must decide every descriptor a dead domain left
         undecided — the deque drain alone only *reads* past them *)
      orphans_helped = Dcas.Mem_lockfree.help_orphans ();
    }

  let run_supervised ?(seed = 0xD0E5) ?(steal_batch = 8)
      ?(config = Supervisor.default) ?watchdog ~workers ~capacity root =
    check_args ~who:"run_supervised" ~workers ~steal_batch;
    Supervisor.validate config;
    let master = Dcas.Splitmix.create ~seed in
    let pool =
      make_pool ?wd:watchdog ~workers ~capacity ~steal_max:steal_batch ()
    in
    let ctxs =
      Array.init workers (fun worker ->
          {
            pool;
            worker;
            rng = Dcas.Splitmix.split master;
            ws = make_wstate ~slot:worker ~born:0;
          })
    in
    seed_root pool root;
    Option.iter Harness.Watchdog.start watchdog;
    let t0 = Unix.gettimeofday () in
    let initial =
      List.init workers (fun i ->
          let ctx = ctxs.(i) in
          let d = Domain.spawn (supervised_body ctx) in
          (d, { ws = ctx.ws; domain = None; last_ticks = 0; last_move = t0 }))
    in
    let worker_domains = List.map fst initial in
    let sup_rng = Dcas.Splitmix.split master in
    let sup =
      Domain.spawn (fun () ->
          supervise pool config ~rng:sup_rng
            ~initial:(List.map snd initial))
    in
    (* initial workers retire when pending reaches zero — naturally or
       by reconciliation; dead ones are joinable immediately *)
    join_all worker_domains;
    let report = Domain.join sup in
    Option.iter (fun w -> ignore (Harness.Watchdog.stop w)) watchdog;
    (match Atomic.get pool.first_error with Some e -> raise e | None -> ());
    report
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
