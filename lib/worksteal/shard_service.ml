(* A supervised producer/consumer service over a sharded deque
   (experiment E24).

   [Core.Sharded] is the data plane: K policy-wrapped deques behind
   affinity routing, cross-shard overflow and stealing.  This
   module is the control plane that turns it into a service that
   survives fail-stop faults: M producer domains inject keyed traffic
   (open-loop token bucket or closed loop), N consumer domains drain
   it, and the {!Supervisor} monitor — the same loop that supervises
   {!Scheduler.Make.run_supervised} — fences dead, silent and zombie
   workers, has this module replace them (a consumer's home shard is
   quarantined, adopted and revived), and finally reconciles the
   pending counter under its quiescence certificate.

   Conservation is the acceptance law, service-wide:

     spawned = executed + reconciled + shed   and   leftover = 0

   [spawned] counts pushes that were granted a pending unit (the unit
   is taken BEFORE the push and returned if the push honestly answers
   [`Full], so a death inside a push leaves the unit up whether or not
   the item landed); [executed] counts pops served; [reconciled] is
   what the quiescence certificate wrote off — at most one in-flight
   item per death, the same bound the scheduler proves.  [shed] is the
   deadline-enforcement path (E25): ops refused at admission (the home
   shard's observed p99 sojourn already exceeds the budget), ops whose
   push ran out of budget, and ops popped after their stamped expiry
   all resolve their pending unit as first-class timed-out outcomes —
   they keep their spawned unit, so shedding is visible in the books,
   never silent.  [leftover] is the final quiescent drain of every
   shard, which must be empty precisely because a consumer's full
   no-find scan (the certificate's ingredient) walks every shard,
   quarantined ones included, primary and overflow both.

   An idle consumer parks for at most 0.5ms, and a push that lands
   meanwhile wakes it: at once when its pop found nothing and no
   request is pending, else after 32 consecutive no-finds.  The bound
   keeps the loop's fence checks, zombie polling, drained exit and
   certificate scans on their cadence; the wake only cuts the wait.
   It rings on a self-pipe the run holds while it runs, because
   OCaml 5.1's [Condition] has no timed wait.

   Failure detection is the supervisor's: tick-based silence
   ([silence_after]) and progress-based zombie detection
   ([zombie_after], consumers only — an open-loop producer between
   refills legitimately makes no progress).  A consumer flags its
   parks ([idling]) so a long park between scans can never be
   mistaken for silence, and checks its [fenced] flag every loop, so
   a worker that wakes up after being replaced retires instead of
   running beside its replacement. *)

type config = {
  shards : int;
  producers : int;
  consumers : int;
  capacity : int;  (* per-shard primary capacity *)
  full : Deque.Policy.full_policy;  (* per-shard full policy *)
  rate : float;  (* per-producer arrivals/s; <= 0 = closed loop *)
  burst : int;  (* arrivals released per token-bucket refill *)
  urgent_share : float;  (* fraction of pushes entering the left end *)
  deadline : float option;
  (* per-request budget, seconds: bounds the push, stamps the item
     with an absolute expiry, and sheds it at dequeue if exceeded *)
  admission : bool;
  (* refuse requests at enqueue when the home shard's observed p99
     sojourn already exceeds the deadline (no-op without one) *)
  sup : Supervisor.config;  (* monitor poll / silence / quiet knobs *)
  seed : int;
}

let default =
  {
    shards = 4;
    producers = 2;
    consumers = 2;
    capacity = 1024;
    full = Deque.Policy.Spill;
    rate = 0.;
    burst = 32;
    urgent_share = 0.1;
    deadline = None;
    admission = false;
    sup = Supervisor.default;
    seed = 0x5EA5;
  }

let validate c =
  if c.shards < 1 then invalid_arg "Shard_service: shards must be >= 1";
  if c.producers < 1 then invalid_arg "Shard_service: producers must be >= 1";
  if c.consumers < 1 then invalid_arg "Shard_service: consumers must be >= 1";
  if c.burst < 1 then invalid_arg "Shard_service: burst must be >= 1";
  if not (c.urgent_share >= 0. && c.urgent_share <= 1.) then
    invalid_arg "Shard_service: urgent_share must be in [0,1]";
  Supervisor.validate c.sup

type report = {
  spawned : int;  (* pending units granted to pushes *)
  executed : int;  (* pops served (within deadline) *)
  reconciled : int;  (* phantom units written off at quiescence *)
  shed_admission : int;  (* ops refused at enqueue by admission control *)
  shed_expired : int;
  (* ops timed out with their unit retained: push ran out of budget,
     or the item was popped after its stamped expiry *)
  leftover : int;  (* items found by the final quiescent drain *)
  pushed_ok : int;  (* pushes that landed: Sharded's landing count *)
  push_full : int;  (* pushes refused as `Full (unit returned) *)
  timeouts : int;  (* push/pop calls that ran out of deadline *)
  empty_scans : int;  (* consumers' full no-find scans *)
  overshoot_max_ns : int;
  (* worst served-op completion past its stamped expiry: expired items
     are shed at dequeue, so anything beyond a scheduling epsilon here
     is an enforcement bug — the E25 gate *)
  killed : int;  (* workers lost to Crash.Died *)
  presumed_dead : int;  (* silent workers replaced without certificate *)
  zombies_fenced : int;  (* ticking-but-stuck consumers fenced *)
  replacements : int;  (* replacement domains spawned *)
  adoptions : int;  (* shard quarantine+drain+revive cycles *)
  adopted_items : int;  (* items moved off quarantined shards *)
  orphans_helped : int;  (* descriptors completed for dead domains *)
  recoveries : float list;
      (* seconds from detection to replacement running, per event *)
  per_shard_popped : int array;  (* external serves, for Starvation *)
  elapsed : float;
}

let shed r = r.shed_admission + r.shed_expired

let conserved r =
  r.spawned = r.executed + r.reconciled + shed r && r.leftover = 0

let pp_report ppf r =
  Format.fprintf ppf
    "spawned=%d executed=%d reconciled=%d shed=%d+%d leftover=%d ok=%d \
     full=%d timeout=%d overshoot-max=%dns killed=%d presumed-dead=%d \
     zombies-fenced=%d replacements=%d adoptions=%d adopted-items=%d \
     orphans-helped=%d recoveries=%d"
    r.spawned r.executed r.reconciled r.shed_admission r.shed_expired
    r.leftover r.pushed_ok r.push_full r.timeouts r.overshoot_max_ns
    r.killed r.presumed_dead r.zombies_fenced r.replacements r.adoptions
    r.adopted_items r.orphans_helped
    (List.length r.recoveries)

module Make (D : Deque.Deque_intf.S) = struct
  module S = Deque.Sharded.Make (D)

  (* The service's own per-worker counters, beside the shared ones in
     {!Supervisor.worker}; all atomics padded. *)
  type own = {
    full : int Atomic.t;
    timeout : int Atomic.t;
    shed_adm : int Atomic.t;  (* refused at enqueue by admission *)
    shed_exp : int Atomic.t;  (* budget spent: push timeout / expired pop *)
    late_ns : int Atomic.t;  (* max served completion past expiry, ns *)
  }

  type worker = own Supervisor.worker

  (* Slots hold producers first, then consumers; only consumers'
     no-find scans walk every shard, so only they certify quiescence. *)
  let make_worker cfg ~slot : worker =
    let a = Dcas.Padding.make_atomic in
    Supervisor.worker ~slot ~certifies:(slot >= cfg.producers)
      {
        full = a 0;
        timeout = a 0;
        shed_adm = a 0;
        shed_exp = a 0;
        late_ns = a 0;
      }

  (* Progress (as opposed to liveness): operations this worker has
     RESOLVED — served, refused, timed out, shed — plus finished
     no-find scans.  A healthy idle consumer keeps completing empty
     scans, so its progress moves; a zombie's heartbeat moves while
     this stays frozen.  That asymmetry is the whole detector. *)
  let progress (ws : worker) =
    Atomic.get ws.executed + Atomic.get ws.own.full
    + Atomic.get ws.own.timeout + Atomic.get ws.own.shed_adm
    + Atomic.get ws.own.shed_exp + Atomic.get ws.scans

  (* What travels through the deques: the value plus its deadline
     stamp.  [expiry] is absolute ([infinity] without a deadline) so a
     consumer can shed an expired item with one clock read; [home] is
     the key's home shard, so the sojourn lands on the shard admission
     control will consult for the next request on that key. *)
  type item = { v : int; enq : float; expiry : float; home : int }

  type state = {
    service : item S.t;
    cfg : config;
    pending : int Atomic.t;
    stop : bool Atomic.t;  (* producers: stop injecting *)
    producers_running : int Atomic.t;
    sleepers : int Atomic.t;  (* consumers registered for a wake *)
    bell_r : Unix.file_descr;  (* the wake pipe's ends, both nonblocking *)
    bell_w : Unix.file_descr;
  }

  (* No new request can arrive: producers told to stop, and all gone. *)
  let quiet st =
    Atomic.get st.stop && Atomic.get st.producers_running = 0

  (* Consumers may exit: no request can arrive and none is pending. *)
  let drained st = quiet st && Atomic.get st.pending = 0

  (* Consumers are pinned to a home shard round-robin by slot: their
     pops route there first, so a consumer death starves a specific
     shard until the monitor adopts it — the scenario E24 storms. *)
  let consumer_shard cfg ~slot = (slot - cfg.producers) mod cfg.shards

  (* Keys whose affinity hash routes to a wanted shard, found by probe
     (pure, so computed once per worker). *)
  let key_for service ~shard =
    let rec go k =
      if k > 1_000_000 then shard (* unreachable: hash is uniform *)
      else if S.shard_of service ~key:k = shard then k
      else go (k + 1)
    in
    go 0

  (* Routing keys are drawn uniformly from [0, key_space). *)
  let key_space = 1024

  (* --- the idle park --- *)

  let park_s = 0.0005
  let one_byte = Bytes.make 1 '\000'

  (* A landed push wakes the parked consumers.  A full pipe already
     holds a wake, so its [EAGAIN] is dropped. *)
  let ring st =
    if Atomic.get st.sleepers > 0 then
      try ignore (Unix.single_write st.bell_w one_byte 0 1)
      with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

  (* Park until a push rings or [park_s] passes, then drain up to 64
     rings ([buf] is the consumer's own) so the next park waits
     afresh; any left over end that park at once.  [idling] flags the
     deliberate park: a consumer descheduled inside it must read as
     idling, never as silent (the false-silence hazard).  A [starved]
     park — entered because no request was pending — registers in
     [sleepers] BEFORE it reads [pending] again, so it cannot sleep
     through the push that ends it: either that read sees the push's
     unit, or the push sees the registration and rings.  A park after
     32 no-finds waits without that re-read, so a push that landed
     just before it registered goes unrung; that costs at most
     [park_s], and no correctness property depends on the wake. *)
  let park st (ws : worker) ~buf ~starved =
    Atomic.set ws.idling true;
    Atomic.incr st.sleepers;
    if (not starved) || Atomic.get st.pending = 0 then begin
      match Unix.select [ st.bell_r ] [] [] park_s with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          (* another parked consumer may have drained it first *)
          try ignore (Unix.read st.bell_r buf 0 (Bytes.length buf))
          with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end;
    Atomic.decr st.sleepers;
    Atomic.set ws.idling false

  (* --- producer --- *)

  (* A push is granted its pending unit BEFORE the attempt: if the
     push honestly answers [`Full] the unit is returned; if the domain
     dies inside, the unit stays up and is reconciled at quiescence
     whether or not the item landed.  (If it landed, a consumer pops
     it and the books balance through [executed].)  The deadline paths
     resolve the unit as SHED instead of returning it — a timed-out op
     was a real request the service failed, so it keeps its place in
     the conservation law: refused at admission (the home shard's
     observed p99 already exceeds the whole budget, so the enqueue
     would only age into an expired pop) or timed out inside the push
     itself.  Both surface to the observer as the first-class
     [`Timeout] outcome. *)
  let produce st (ws : worker) ~on_push ~rng value =
    let cfg = st.cfg in
    let key = Dcas.Splitmix.int rng ~bound:key_space in
    let urgent =
      cfg.urgent_share > 0.
      && Dcas.Splitmix.int rng ~bound:10_000
         < int_of_float (cfg.urgent_share *. 10_000.)
    in
    Atomic.set ws.busy true;
    Atomic.incr st.pending;
    Atomic.incr ws.spawned;
    let t0 = Unix.gettimeofday () in
    let admitted =
      match cfg.deadline with
      | Some budget when cfg.admission ->
          S.admit st.service ~key ~budget
      | Some _ | None -> true
    in
    let out =
      if not admitted then begin
        Atomic.decr st.pending;
        Atomic.incr ws.own.shed_adm;
        `Timeout
      end
      else
        let expiry =
          match cfg.deadline with None -> infinity | Some b -> t0 +. b
        in
        let item =
          { v = value; enq = t0; expiry; home = S.shard_of st.service ~key }
        in
        let pushed =
          (* constant lanes: [~urgent] of a variable boxes [Some urgent]
             on every request *)
          if urgent then
            S.push ?deadline:cfg.deadline ~urgent:true st.service ~key item
          else S.push ?deadline:cfg.deadline st.service ~key item
        in
        match pushed with
        | `Okay ->
            ring st;
            `Okay
        | `Full ->
            Atomic.decr st.pending;
            Atomic.decr ws.spawned;
            Atomic.incr ws.own.full;
            `Full
        | `Timeout ->
            (* the budget died inside the push: shed, keeping the
               spawned unit on the books *)
            Atomic.decr st.pending;
            Atomic.incr ws.own.shed_exp;
            Atomic.incr ws.own.timeout;
            `Timeout
    in
    let ns = (Unix.gettimeofday () -. t0) *. 1e9 in
    Atomic.set ws.busy false;
    on_push ~tid:ws.slot ~ns out

  let producer_loop st (ws : worker) ~on_push =
    let cfg = st.cfg in
    let rng =
      Dcas.Splitmix.create ~seed:(cfg.seed + (ws.slot * 7919) + 1)
    in
    let t_start = Unix.gettimeofday () in
    let sent = ref 0 in
    while not (Atomic.get st.stop) && not (Atomic.get ws.fenced) do
      Atomic.incr ws.ticks;
      if Harness.Stall.Zombie.active ~tid:ws.slot then begin
        (* zombified: alive and ticking, injecting nothing *)
        Harness.Stall.Zombie.bite ~tid:ws.slot;
        Unix.sleepf 0.0001
      end
      else if cfg.rate <= 0. then begin
        (* closed loop: inject as fast as the service absorbs *)
        produce st ws ~on_push ~rng !sent;
        incr sent
      end
      else begin
        (* open loop: the token bucket owes [rate * elapsed] arrivals
           regardless of completions; release them in bursts *)
        let owed =
          int_of_float ((Unix.gettimeofday () -. t_start) *. cfg.rate)
          - !sent
        in
        if owed >= 1 then
          let n = min owed cfg.burst in
          for _ = 1 to n do
            produce st ws ~on_push ~rng !sent;
            incr sent
          done
        else Domain.cpu_relax ()
      end
    done

  (* --- consumer --- *)

  let consumer_loop st (ws : worker) ~on_pop =
    let cfg = st.cfg in
    let home = consumer_shard cfg ~slot:ws.slot in
    let key = key_for st.service ~shard:home in
    (* Park (busy=false) when nothing is pending, or after a run of 32
       consecutive no-finds.  Besides not burning a core on an idle
       service, the park is what makes quiescence certification live
       on few cores: the monitor needs to sample an instant where no
       consumer is inside a pop, and a consumer that never parks is
       inside a pop almost always. *)
    let idle = ref 0 and buf = Bytes.create 64 in
    let rec loop () =
      if Atomic.get ws.fenced then ()  (* replaced: retire quietly *)
      else if drained st then ()
      else if Harness.Stall.Zombie.active ~tid:ws.slot then begin
        (* zombified: the heartbeat ticks and no work happens —
           indistinguishable from healthy by every liveness signal,
           which is the point; only the frozen progress counters give
           it away *)
        Atomic.incr ws.ticks;
        Harness.Stall.Zombie.bite ~tid:ws.slot;
        Unix.sleepf 0.0001;
        loop ()
      end
      else begin
        Atomic.incr ws.ticks;
        Atomic.set ws.busy true;
        let t0 = Unix.gettimeofday () in
        (* urgent-side pops: left end first = urgent entries, then the
           oldest bulk — FIFO service with priority jumping.  A pop that
           comes back `Empty has scanned every shard (Sharded's steal
           sweep), which is exactly the full no-find scan certificate
           quiescence needs.  The deadline budget applies only while
           traffic flows: a budgeted pop blocks inside the deque for
           the whole budget when the service is empty, which would pin
           [busy] true almost always and starve the monitor of the
           all-idle instant quiescence certification samples for — so
           once [stop] is set (no new requests left to bound), drain
           pops run unbudgeted and certificates flow freely. *)
        let deadline =
          if Atomic.get st.stop then None else cfg.deadline
        in
        let out = S.pop ?deadline ~urgent:true st.service ~key in
        let ns = (Unix.gettimeofday () -. t0) *. 1e9 in
        let out' =
          match out with
          | `Value it ->
              let now = Unix.gettimeofday () in
              (* the sojourn estimate must see the whole tail, shed
                 requests included — they ARE the tail *)
              S.note_sojourn st.service ~shard:it.home
                ~ns:(int_of_float ((now -. it.enq) *. 1e9));
              if now >= it.expiry then begin
                (* expired in queue: shed at dequeue — the op resolves
                   as a first-class timeout, its unit stays spawned *)
                Atomic.incr ws.own.shed_exp;
                Atomic.decr st.pending;
                `Timeout
              end
              else begin
                Atomic.incr ws.executed;
                Atomic.decr st.pending;
                (* overshoot is judged at completion, on a fresh clock
                   read: the gap between the expiry check above and
                   here is exactly the scheduling epsilon E25 allows.
                   An item without a deadline cannot overshoot. *)
                if it.expiry < infinity then begin
                  let late_ns =
                    int_of_float ((Unix.gettimeofday () -. it.expiry) *. 1e9)
                  in
                  if late_ns > Atomic.get ws.own.late_ns then
                    Atomic.set ws.own.late_ns late_ns
                end;
                `Value it.v
              end
          | `Empty ->
              Atomic.incr ws.scans;
              `Empty
          | `Timeout ->
              Atomic.incr ws.own.timeout;
              `Timeout
        in
        Atomic.set ws.busy false;
        on_pop ~tid:ws.slot ~ns out';
        if drained st then ()
        else begin
          (match out with
          | `Value _ -> idle := 0
          | `Empty when Atomic.get st.pending = 0 ->
              (* no scan could find anything until the next push *)
              incr idle;
              park st ws ~buf ~starved:true
          | `Empty | `Timeout ->
              incr idle;
              if !idle >= 32 then park st ws ~buf ~starved:false
              else Domain.cpu_relax ());
          loop ()
        end
      end
    in
    loop ()

  (* A worker's loop by role.  A producer leaves [producers_running]
     on any exit, death included, so the monitor can tell when no new
     request can arrive. *)
  let worker_loop st (w : worker) ~on_push ~on_pop () =
    if w.certifies then consumer_loop st w ~on_pop
    else
      Fun.protect
        ~finally:(fun () -> Atomic.decr st.producers_running)
        (fun () -> producer_loop st w ~on_push)

  (* Replace a fenced worker.  A consumer's home shard is quarantined,
     drained into the survivors and revived for the replacement — the
     adoption path under test. *)
  let replace st ~adoptions ~adopted_items ~on_push ~on_pop (old : worker) =
    let slot = old.slot in
    if old.certifies then begin
      let shard = consumer_shard st.cfg ~slot in
      S.quarantine st.service ~shard;
      adopted_items := !adopted_items + S.adopt st.service ~shard;
      S.revive st.service ~shard;
      incr adoptions
    end
    else Atomic.incr st.producers_running;
    let w = make_worker st.cfg ~slot in
    (w, worker_loop st w ~on_push ~on_pop)

  (* --- entry point --- *)

  let null_push ~tid:_ ~ns:_ _ = ()
  let null_pop ~tid:_ ~ns:_ _ = ()

  (* Run the service.  [driver] executes on the calling domain while
     traffic flows — the E24/E25 soak runs its storm schedule there —
     and its return, or its exception, asks the producers to stop; the
     run then drains, reconciles and joins, and closes the wake pipe
     (re-raising the driver's exception, if any).  Default driver:
     sleep [duration] seconds. *)
  let run ?(config = default) ?(on_push = null_push) ?(on_pop = null_pop)
      ?driver ~duration () =
    validate config;
    if duration < 0. then invalid_arg "Shard_service.run: duration < 0";
    let service =
      S.create ~full:config.full ~shards:config.shards
        ~capacity:config.capacity ()
    in
    let bell_r, bell_w = Unix.pipe ~cloexec:true () in
    Unix.set_nonblock bell_r;
    Unix.set_nonblock bell_w;
    let st =
      {
        service;
        cfg = config;
        pending = Dcas.Padding.make_atomic 0;
        stop = Dcas.Padding.make_atomic false;
        producers_running = Dcas.Padding.make_atomic config.producers;
        sleepers = Dcas.Padding.make_atomic 0;
        bell_r;
        bell_w;
      }
    in
    let workers =
      List.init (config.producers + config.consumers) (fun slot ->
          let w = make_worker config ~slot in
          (w, worker_loop st w ~on_push ~on_pop))
    in
    let t0 = Unix.gettimeofday () in
    let adoptions = ref 0 and adopted_items = ref 0 in
    let driver () =
      Fun.protect
        ~finally:(fun () -> Atomic.set st.stop true)
        (fun () ->
          match driver with Some f -> f () | None -> Unix.sleepf duration)
    in
    let o =
      Fun.protect
        ~finally:(fun () ->
          Unix.close bell_r;
          Unix.close bell_w)
        (fun () ->
          Supervisor.run config.sup ~pending:st.pending
            ~quiet:(fun () -> quiet st)
            ~progress
            ~replace:(replace st ~adoptions ~adopted_items ~on_push ~on_pop)
            ~driver workers)
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    (* survivors must decide every descriptor a dead domain left
       undecided before the quiescent drain reads past them *)
    let orphans_helped = Dcas.Mem_lockfree.help_orphans () in
    let leftover = List.length (S.drain service) in
    let stats = S.stats service in
    let sum = Supervisor.sum o in
    {
      spawned = sum (fun w -> w.spawned);
      executed = sum (fun w -> w.executed);
      reconciled = o.reconciled;
      shed_admission = sum (fun w -> w.own.shed_adm);
      shed_expired = sum (fun w -> w.own.shed_exp);
      leftover;
      pushed_ok = stats.pushed;
      push_full = sum (fun w -> w.own.full);
      timeouts = sum (fun w -> w.own.timeout);
      empty_scans = sum (fun w -> w.scans);
      overshoot_max_ns =
        List.fold_left
          (fun m (w : worker) -> max m (Atomic.get w.own.late_ns))
          0 o.workers;
      killed = o.killed;
      presumed_dead = o.presumed_dead;
      zombies_fenced = o.zombies_fenced;
      replacements = o.replacements;
      adoptions = !adoptions;
      adopted_items = !adopted_items;
      orphans_helped;
      recoveries = o.recoveries;
      per_shard_popped = stats.per_shard_popped;
      elapsed;
    }
end

module Array_service = Make (Deque.Array_deque.Lockfree)
