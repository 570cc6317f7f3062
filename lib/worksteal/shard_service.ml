(* A supervised producer/consumer service over a sharded deque
   (ROADMAP item 3, experiment E24).

   [Core.Sharded] is the data plane: K policy-wrapped deques behind
   affinity routing, cross-shard overflow and steal rebalancing.  This
   module is the control plane that turns it into a service that
   survives fail-stop faults: M producer domains inject keyed traffic
   (open-loop token bucket or closed loop), N consumer domains drain
   it, and a monitor domain — never enrolled with the crash layer,
   hence immortal — watches for dead or silent workers, quarantines
   and adopts a dead consumer's home shard, spawns an epoch-free
   replacement (each crash tid dies at most once, so replacements are
   immortal), and finally reconciles the pending counter under the
   same quiescence certificate as {!Scheduler.Make.run_supervised}.

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

   Failure detection is two disjoint detectors (Supervisor knobs):
   tick-based silence ([silence_after]) catches workers whose
   heartbeat froze (dead without a certificate, or frozen), and
   progress-based zombie detection ([zombie_after]) catches consumers
   whose heartbeat keeps ticking while their progress counters — ops
   resolved plus no-find scans — are frozen (Harness.Stall.Zombie's
   alive-but-useless mode).  An idle consumer trips neither: its
   empty scans advance progress, and its deliberate idle-backoff
   sleeps are flagged ([idling]) so a long park between scans can
   never be mistaken for silence.  Either detector fences the old
   worker (it retires at its next loop iteration, even if it wakes
   later) before the slot is replaced and — for consumers — its home
   shard is adopted; the owners table holds one tracked entry per
   slot, so a fenced worker is never examined again and no slot is
   adopted twice for one failure. *)

type config = {
  shards : int;
  producers : int;
  consumers : int;
  capacity : int;  (* per-shard primary capacity *)
  full : Deque.Policy.full_policy;  (* per-shard full policy *)
  steal_batch : int;  (* rebalancing transfer bound *)
  rate : float;  (* per-producer arrivals/s; <= 0 = closed loop *)
  burst : int;  (* arrivals released per token-bucket refill *)
  urgent_share : float;  (* fraction of pushes entering the left end *)
  key_space : int;  (* routing keys drawn uniformly from [0,key_space) *)
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
    steal_batch = 8;
    rate = 0.;
    burst = 32;
    urgent_share = 0.1;
    key_space = 1024;
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
  if c.key_space < 1 then invalid_arg "Shard_service: key_space must be >= 1";
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
  pushed_ok : int;  (* pushes that landed *)
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
  per_shard_pushed : int array;  (* external landings, for Starvation *)
  per_shard_popped : int array;
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

  (* Per-worker-domain state, monitor-readable; all atomics padded
     (the records sit next to each other in the tracking list). *)
  type wstate = {
    slot : int;
    role : [ `Producer | `Consumer ];
    busy : bool Atomic.t;  (* inside an operation + its accounting *)
    ticks : int Atomic.t;  (* liveness heartbeat, bumped every loop *)
    scans : int Atomic.t;  (* full no-find service scans (consumers) *)
    spawned_w : int Atomic.t;  (* net pending units granted *)
    executed_w : int Atomic.t;
    ok_w : int Atomic.t;
    full_w : int Atomic.t;
    timeout_w : int Atomic.t;
    shed_adm_w : int Atomic.t;  (* refused at enqueue by admission *)
    shed_exp_w : int Atomic.t;  (* budget spent: push timeout / expired pop *)
    late_ns_w : int Atomic.t;  (* max served completion past expiry, ns *)
    idling : bool Atomic.t;
    (* inside the deliberate idle-backoff sleep: the monitor must not
       read the park as silence (the false-silence hazard) *)
    fenced : bool Atomic.t;
    (* set by the monitor before replacing this worker: the worker
       retires at its next loop check, so a presumed-dead worker that
       wakes up, or a cured zombie, can never run beside its
       replacement *)
    died : bool Atomic.t;
    retired : bool Atomic.t;
  }

  let make_wstate ~slot ~role =
    {
      slot;
      role;
      busy = Dcas.Padding.make_atomic false;
      ticks = Dcas.Padding.make_atomic 0;
      scans = Dcas.Padding.make_atomic 0;
      spawned_w = Dcas.Padding.make_atomic 0;
      executed_w = Dcas.Padding.make_atomic 0;
      ok_w = Dcas.Padding.make_atomic 0;
      full_w = Dcas.Padding.make_atomic 0;
      timeout_w = Dcas.Padding.make_atomic 0;
      shed_adm_w = Dcas.Padding.make_atomic 0;
      shed_exp_w = Dcas.Padding.make_atomic 0;
      late_ns_w = Dcas.Padding.make_atomic 0;
      idling = Dcas.Padding.make_atomic false;
      fenced = Dcas.Padding.make_atomic false;
      died = Dcas.Padding.make_atomic false;
      retired = Dcas.Padding.make_atomic false;
    }

  (* Progress (as opposed to liveness): operations this worker has
     RESOLVED — served, refused, timed out, shed — plus finished
     no-find scans.  A healthy idle consumer keeps completing empty
     scans, so its progress moves; a zombie's heartbeat moves while
     this stays frozen.  That asymmetry is the whole detector. *)
  let progress ws =
    Atomic.get ws.executed_w + Atomic.get ws.ok_w + Atomic.get ws.full_w
    + Atomic.get ws.timeout_w + Atomic.get ws.shed_adm_w
    + Atomic.get ws.shed_exp_w + Atomic.get ws.scans

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
    drained : bool Atomic.t;  (* consumers may exit: stop + pending=0 *)
    wd : Harness.Watchdog.t option;
  }

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

  let tick_wd st ~tid =
    match st.wd with
    | None -> ()
    | Some w -> Harness.Watchdog.tick w ~tid

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
  let produce st ws ~on_push ~rng value =
    let cfg = st.cfg in
    let key = Dcas.Splitmix.int rng ~bound:cfg.key_space in
    let urgent =
      cfg.urgent_share > 0.
      && Dcas.Splitmix.int rng ~bound:10_000
         < int_of_float (cfg.urgent_share *. 10_000.)
    in
    Atomic.set ws.busy true;
    Atomic.incr st.pending;
    Atomic.incr ws.spawned_w;
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
        Atomic.incr ws.shed_adm_w;
        `Timeout
      end
      else
        let expiry =
          match cfg.deadline with None -> infinity | Some b -> t0 +. b
        in
        let item =
          { v = value; enq = t0; expiry; home = S.shard_of st.service ~key }
        in
        match S.push ?deadline:cfg.deadline ~urgent st.service ~key item with
        | `Okay ->
            Atomic.incr ws.ok_w;
            `Okay
        | `Full ->
            Atomic.decr st.pending;
            Atomic.decr ws.spawned_w;
            Atomic.incr ws.full_w;
            `Full
        | `Timeout ->
            (* the budget died inside the push: shed, keeping the
               spawned unit on the books *)
            Atomic.decr st.pending;
            Atomic.incr ws.shed_exp_w;
            Atomic.incr ws.timeout_w;
            `Timeout
    in
    let ns = (Unix.gettimeofday () -. t0) *. 1e9 in
    Atomic.set ws.busy false;
    on_push ~tid:ws.slot ~ns out;
    tick_wd st ~tid:ws.slot

  let producer_loop st ws ~on_push =
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
        tick_wd st ~tid:ws.slot;
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

  let consumer_loop st ws ~on_pop =
    let cfg = st.cfg in
    let home = consumer_shard cfg ~slot:ws.slot in
    let key = key_for st.service ~shard:home in
    (* Park briefly (busy=false) after a run of consecutive no-finds.
       Besides not burning a core on an idle service, this is what
       makes quiescence certification live on few cores: the monitor
       needs to sample an instant where no consumer is inside a pop,
       and a consumer that never sleeps is inside a pop almost
       always. *)
    let idle = ref 0 in
    let rec loop () =
      if Atomic.get ws.fenced then ()  (* replaced: retire quietly *)
      else if Atomic.get st.drained then ()
      else if Harness.Stall.Zombie.active ~tid:ws.slot then begin
        (* zombified: the heartbeat ticks, the watchdog is fed, and no
           work happens — indistinguishable from healthy by every
           liveness signal, which is the point; only the frozen
           progress counters give it away *)
        Atomic.incr ws.ticks;
        Harness.Stall.Zombie.bite ~tid:ws.slot;
        tick_wd st ~tid:ws.slot;
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
                Atomic.incr ws.shed_exp_w;
                Atomic.decr st.pending;
                `Timeout
              end
              else begin
                Atomic.incr ws.executed_w;
                Atomic.decr st.pending;
                (* overshoot is judged at completion, on a fresh clock
                   read: the gap between the expiry check above and
                   here is exactly the scheduling epsilon E25 allows *)
                let late_ns =
                  int_of_float ((Unix.gettimeofday () -. it.expiry) *. 1e9)
                in
                if late_ns > Atomic.get ws.late_ns_w then
                  Atomic.set ws.late_ns_w late_ns;
                `Value it.v
              end
          | `Empty ->
              Atomic.incr ws.scans;
              `Empty
          | `Timeout ->
              Atomic.incr ws.timeout_w;
              `Timeout
        in
        Atomic.set ws.busy false;
        on_pop ~tid:ws.slot ~ns out';
        tick_wd st ~tid:ws.slot;
        if Atomic.get st.drained then ()
        else begin
          (match out with
          | `Value _ -> idle := 0
          | `Empty | `Timeout ->
              incr idle;
              if !idle >= 32 then begin
                (* flag the deliberate park: an idle consumer
                   descheduled inside this sleep must read as idling,
                   never as silent (the false-silence hazard) *)
                Atomic.set ws.idling true;
                Unix.sleepf 0.0005;
                Atomic.set ws.idling false
              end
              else Domain.cpu_relax ());
          loop ()
        end
      end
    in
    loop ()

  (* --- domain bodies --- *)

  let body st ws ~on_push ~on_pop () =
    if ws.slot < Harness.Crash.max_slots then
      Harness.Crash.enroll ~tid:ws.slot;
    if ws.slot < Harness.Stall.Freezer.max_slots then
      Harness.Stall.Freezer.enroll ~tid:ws.slot;
    (match ws.role with
    | `Producer -> (
        try producer_loop st ws ~on_push
        with Harness.Crash.Died ->
          Atomic.set ws.died true)
    | `Consumer -> (
        try consumer_loop st ws ~on_pop
        with Harness.Crash.Died -> Atomic.set ws.died true));
    (match ws.role with
    | `Producer -> Atomic.decr st.producers_running
    | `Consumer -> ());
    Atomic.set ws.retired true

  (* --- monitor --- *)

  type tracked = {
    ws : wstate;
    domain : unit Domain.t option;  (* None for initial workers *)
    mutable last_ticks : int;
    mutable last_move : float;
    mutable last_progress : int;
    mutable last_progress_move : float;
  }

  let sum field tracked =
    List.fold_left (fun n t -> n + Atomic.get (field t.ws)) 0 tracked

  (* Replace the dead/silent owner of [slot].  Consumers additionally
     get their home shard quarantined, drained into the survivors and
     revived for the replacement — the adoption path under test. *)
  let replace st ~on_push ~on_pop ~slot ~role =
    let moved =
      match role with
      | `Producer -> 0
      | `Consumer ->
          let shard = consumer_shard st.cfg ~slot in
          S.quarantine st.service ~shard;
          let n = S.adopt st.service ~shard in
          S.revive st.service ~shard;
          n
    in
    let ws = make_wstate ~slot ~role in
    (match role with
    | `Producer -> Atomic.incr st.producers_running
    | `Consumer -> ());
    let d = Domain.spawn (body st ws ~on_push ~on_pop) in
    (moved, ws, d)

  let supervise st ~on_push ~on_pop ~initial =
    let cfg = st.cfg in
    let tracked = ref initial in
    let owners = Array.of_list initial in
    let adoptions = ref 0 in
    let adopted_items = ref 0 in
    let reconciled = ref 0 in
    let replacements = ref 0 in
    let presumed = ref 0 in
    let zombies = ref 0 in
    let recoveries = ref [] in
    let q = Supervisor.quiescence () in
    let debug = Sys.getenv_opt "SHARD_SERVICE_DEBUG" <> None in
    let finished () =
      Atomic.get st.drained
      && List.for_all
           (fun t ->
             Atomic.get t.ws.retired || Atomic.get t.ws.died)
           !tracked
    in
    while not (finished ()) do
      let now = Unix.gettimeofday () in
      Array.iteri
        (fun slot t ->
          let dead = Atomic.get t.ws.died in
          let gone = dead || Atomic.get t.ws.retired in
          (* heartbeat sampling is shared by both detectors, so it is
             tracked unconditionally (not inside the silence guard):
             zombie detection must know the ticks are MOVING even when
             silence detection is disabled *)
          let ticks_moving =
            let ticks = Atomic.get t.ws.ticks in
            if ticks <> t.last_ticks then begin
              t.last_ticks <- ticks;
              t.last_move <- now;
              true
            end
            else false
          in
          (* ticks frozen too long: dead without a certificate, or
             frozen mid-operation.  The deliberate idle-backoff sleep
             is excluded ([idling]) — an idle consumer descheduled
             inside its park is healthy, not silent. *)
          let silent =
            cfg.sup.silence_after > 0. && (not gone) && (not ticks_moving)
            && (not (Atomic.get t.ws.idling))
            && now -. t.last_move >= cfg.sup.silence_after
          in
          (* ticks moving, progress frozen: a zombie.  Consumers only —
             an open-loop producer between token-bucket refills is
             legitimately not progressing.  [ticks_moving] is required
             on the very sweep that crosses the threshold: a healthy
             consumer descheduled for a long spell (oversubscribed
             box) freezes ticks and progress together, and must not
             read as a zombie — only a demonstrably beating heart with
             frozen progress is one.  Disjoint from [silent] by
             construction, so one worker can only ever be claimed by
             one detector per sweep, and the fence below makes the
             claim final. *)
          let zombie =
            cfg.sup.zombie_after > 0. && (not gone) && (not silent)
            && t.ws.role = `Consumer
            &&
            let p = progress t.ws in
            if p <> t.last_progress then begin
              t.last_progress <- p;
              t.last_progress_move <- now;
              false
            end
            else
              ticks_moving
              && (not (Atomic.get t.ws.idling))
              && now -. t.last_progress_move >= cfg.sup.zombie_after
          in
          if dead || silent || zombie then begin
            if silent then incr presumed;
            if zombie then incr zombies;
            (* fence before replacing: the old worker retires at its
               next loop check, so a silent worker that wakes up or a
               zombie that gets cured never runs beside its
               replacement — and since the owners table now points at
               the replacement, this slot's failure is acted on
               exactly once (no double-adoption) *)
            Atomic.set t.ws.fenced true;
            let role = t.ws.role in
            let moved, ws, d = replace st ~on_push ~on_pop ~slot ~role in
            (match role with
            | `Consumer ->
                incr adoptions;
                adopted_items := !adopted_items + moved
            | `Producer -> ());
            incr replacements;
            recoveries := (Unix.gettimeofday () -. now) :: !recoveries;
            let t' =
              {
                ws;
                domain = Some d;
                last_ticks = Atomic.get ws.ticks;
                last_move = Unix.gettimeofday ();
                last_progress = progress ws;
                last_progress_move = Unix.gettimeofday ();
              }
            in
            owners.(slot) <- t';
            tracked := t' :: !tracked
          end)
        owners;
      (* producers gone + pending drained => consumers may leave *)
      if
        Atomic.get st.stop
        && Atomic.get st.producers_running = 0
        && Atomic.get st.pending = 0
      then Atomic.set st.drained true;
      (* quiescence: write off units stranded by deaths.  Only
         consumer scans certify — their no-find scan walks every
         shard of the service. *)
      let live t =
        (not (Atomic.get t.ws.died)) && not (Atomic.get t.ws.retired)
      in
      let live_consumers =
        List.filter (fun t -> live t && t.ws.role = `Consumer) !tracked
      in
      let busy =
        List.exists (fun t -> live t && Atomic.get t.ws.busy) !tracked
      in
      let scans =
        Array.of_list
          (List.map (fun t -> Atomic.get t.ws.scans) live_consumers)
      in
      let pending = Atomic.get st.pending in
      let safe =
        Atomic.get st.stop
        && Atomic.get st.producers_running = 0
        && Supervisor.observe q ~pending
             ~executed:(sum (fun w -> w.executed_w) !tracked)
             ~spawned:(sum (fun w -> w.spawned_w) !tracked)
             ~busy ~scans ~quiet_sweeps:cfg.sup.quiet_sweeps
      in
      if safe && Atomic.compare_and_set st.pending pending 0 then
        reconciled := !reconciled + pending;
      (* monitor-eye view of the drain, for diagnosing stuck soaks
         (notably: busy never sampling false on few cores) *)
      if debug then
        Printf.eprintf
            "[mon] stop=%b pr=%d pending=%d drained=%b busy=%b scans=[%s] \
             tracked=%d retired=%d died=%d\n%!"
            (Atomic.get st.stop)
            (Atomic.get st.producers_running)
            pending (Atomic.get st.drained) busy
            (String.concat ","
               (List.map string_of_int (Array.to_list scans)))
            (List.length !tracked)
            (List.length
               (List.filter (fun t -> Atomic.get t.ws.retired) !tracked))
            (List.length
               (List.filter (fun t -> Atomic.get t.ws.died) !tracked));
      Unix.sleepf cfg.sup.interval
    done;
    List.iter
      (fun t -> match t.domain with None -> () | Some d -> Domain.join d)
      !tracked;
    (!tracked, !adoptions, !adopted_items, !reconciled, !replacements,
     !presumed, !zombies, !recoveries)

  (* --- entry point --- *)

  let null_push ~tid:_ ~ns:_ _ = ()
  let null_pop ~tid:_ ~ns:_ _ = ()

  (* Run the service.  [driver] executes on the calling domain while
     traffic flows — E24 uses it to fire crash/stall/chaos storms
     mid-soak — and its return asks the producers to stop; the run
     then drains, reconciles and joins.  Default driver: sleep
     [duration] seconds. *)
  let run ?(config = default) ?watchdog
      ?(on_push = null_push) ?(on_pop = null_pop)
      ?driver ~duration () =
    validate config;
    if duration < 0. then invalid_arg "Shard_service.run: duration < 0";
    let service =
      S.create ~full:config.full ~steal_batch:config.steal_batch
        ~shards:config.shards ~capacity:config.capacity ()
    in
    let st =
      {
        service;
        cfg = config;
        pending = Dcas.Padding.make_atomic 0;
        stop = Dcas.Padding.make_atomic false;
        producers_running = Dcas.Padding.make_atomic config.producers;
        drained = Dcas.Padding.make_atomic false;
        wd = watchdog;
      }
    in
    let workers = config.producers + config.consumers in
    let wss =
      Array.init workers (fun slot ->
          let role =
            if slot < config.producers then `Producer else `Consumer
          in
          make_wstate ~slot ~role)
    in
    Option.iter Harness.Watchdog.start watchdog;
    let t0 = Unix.gettimeofday () in
    let initial =
      Array.to_list
        (Array.map
           (fun ws ->
             let d = Domain.spawn (body st ws ~on_push ~on_pop) in
             ( d,
               {
                 ws;
                 domain = None;
                 last_ticks = 0;
                 last_move = t0;
                 last_progress = 0;
                 last_progress_move = t0;
               } ))
           wss)
    in
    let sup =
      Domain.spawn (fun () ->
          supervise st ~on_push ~on_pop
            ~initial:(List.map snd initial))
    in
    (match driver with
    | Some f -> f ()
    | None -> Unix.sleepf duration);
    Atomic.set st.stop true;
    List.iter (fun (d, _) -> Domain.join d) initial;
    let ( tracked, adoptions, adopted_items, reconciled, replacements,
          presumed, zombies, recoveries ) =
      Domain.join sup
    in
    Option.iter (fun w -> ignore (Harness.Watchdog.stop w)) watchdog;
    let elapsed = Unix.gettimeofday () -. t0 in
    (* survivors must decide every descriptor a dead domain left
       undecided before the quiescent drain reads past them *)
    let orphans_helped = Dcas.Mem_lockfree.help_orphans () in
    let leftover = List.length (S.drain service) in
    let killed =
      List.fold_left
        (fun n t -> if Atomic.get t.ws.died then n + 1 else n)
        0 tracked
    in
    let stats = S.stats service in
    {
      spawned = sum (fun w -> w.spawned_w) tracked;
      executed = sum (fun w -> w.executed_w) tracked;
      reconciled;
      shed_admission = sum (fun w -> w.shed_adm_w) tracked;
      shed_expired = sum (fun w -> w.shed_exp_w) tracked;
      leftover;
      pushed_ok = sum (fun w -> w.ok_w) tracked;
      push_full = sum (fun w -> w.full_w) tracked;
      timeouts = sum (fun w -> w.timeout_w) tracked;
      empty_scans = sum (fun w -> w.scans) tracked;
      overshoot_max_ns =
        List.fold_left
          (fun m t -> max m (Atomic.get t.ws.late_ns_w))
          0 tracked;
      killed;
      presumed_dead = presumed;
      zombies_fenced = zombies;
      replacements;
      adoptions;
      adopted_items;
      orphans_helped;
      recoveries = List.rev recoveries;
      per_shard_pushed = stats.Deque.Sharded.per_shard_pushed;
      per_shard_popped = stats.Deque.Sharded.per_shard_popped;
      elapsed;
    }
end

module Array_service = Make (Deque.Array_deque.Lockfree)
module List_service = Make (Deque.List_deque.Lockfree)
