(* The sharded service front end (Core.Sharded + Worksteal.Shard_service,
   experiment E24): routing determinism, priority lanes, cross-shard
   overflow, stealing, quarantine/adoption, the routed path's
   allocation, and — the robustness core — service-wide conservation
   under multi-domain crash storms and a frozen-shard survivor-progress
   check mirroring E19's empirical lock-freedom suite. *)

module Sharded = Deque.Sharded
module Sh = Deque.Sharded.Make (Deque.Array_deque.Lockfree)

(* --- routing --- *)

let test_routing_spread () =
  let t = Sh.create ~shards:4 ~capacity:64 () in
  let hits = Array.make 4 0 in
  for key = 0 to 1023 do
    let s = Sh.shard_of t ~key in
    Alcotest.(check bool) "in range" true (s >= 0 && s < 4);
    hits.(s) <- hits.(s) + 1
  done;
  (* the affinity hash must not collapse the key space onto one shard *)
  Array.iteri
    (fun i n ->
      if n = 0 then Alcotest.failf "shard %d never hit over 1024 keys" i)
    hits

let qcheck_routing_deterministic =
  QCheck2.Test.make ~name:"routing is a pure function of (key, shards)"
    ~count:500
    QCheck2.Gen.(pair (int_range 1 16) int)
    (fun (shards, key) ->
      let a = Sh.create ~shards ~capacity:8 () in
      let b = Sh.create ~shards ~capacity:8 () in
      let s1 = Sh.shard_of a ~key in
      let s2 = Sh.shard_of a ~key in
      let s3 = Sh.shard_of b ~key in
      s1 = s2 && s1 = s3 && s1 >= 0 && s1 < shards
      && Sharded.mix key = Sharded.mix key)

(* [mix] is a bijection, so exactly one key hashes to [min_int], where
   [abs] is the identity: routing must still land it in range. *)
let test_routing_min_int_hash () =
  let key = -1503233513293293958 in
  Alcotest.(check int) "the key hashes to min_int" min_int (Sharded.mix key);
  for shards = 1 to 16 do
    let s = Sh.shard_of (Sh.create ~shards ~capacity:8 ()) ~key in
    if s < 0 || s >= shards then
      Alcotest.failf "shard_of = %d with %d shards" s shards
  done;
  let t = Sh.create ~shards:3 ~capacity:8 () in
  (match Sh.push t ~key 42 with
  | `Okay -> ()
  | `Full | `Timeout -> Alcotest.fail "push refused");
  match Sh.pop t ~key with
  | `Value v -> Alcotest.(check int) "round trip" 42 v
  | `Empty | `Timeout -> Alcotest.fail "pop found nothing"

let test_route_skips_quarantined () =
  let t = Sh.create ~shards:3 ~capacity:8 () in
  let key = 0 in
  let home = Sh.shard_of t ~key in
  Alcotest.(check int) "route = home when alive" home (Sh.route t ~key);
  Sh.quarantine t ~shard:home;
  let r = Sh.route t ~key in
  Alcotest.(check bool) "routes around the dead shard" true (r <> home);
  Alcotest.(check bool) "to a live one" true (Sh.alive t ~shard:r);
  Sh.revive t ~shard:home;
  Alcotest.(check int) "home again after revival" home (Sh.route t ~key)

(* --- conservation, sequential --- *)

let test_sequential_conservation () =
  let t = Sh.create ~shards:4 ~capacity:32 () in
  for i = 1 to 100 do
    match Sh.push t ~key:i i with
    | `Okay -> ()
    | `Full | `Timeout -> Alcotest.failf "push %d refused" i
  done;
  let s = Sh.stats t in
  Alcotest.(check int) "all landed" 100 s.Sharded.pushed;
  let got = ref [] in
  for key = 1 to 100 do
    match Sh.pop t ~key with
    | `Value v -> got := v :: !got
    | `Empty | `Timeout -> ()
  done;
  let expect = List.init 100 (fun i -> i + 1) in
  Alcotest.(check (list int)) "nothing lost, nothing duplicated" expect
    (List.sort compare !got);
  Alcotest.(check (list int)) "drained dry" [] (Sh.drain t)

(* --- priority lanes --- *)

let test_priority_lanes () =
  let t = Sh.create ~shards:1 ~capacity:16 () in
  let key = 0 in
  List.iter
    (fun v -> ignore (Sh.push t ~key v))
    [ 1; 2; 3 ] (* bulk: right end *);
  ignore (Sh.push ~urgent:true t ~key 10);
  ignore (Sh.push ~urgent:true t ~key 11);
  (* urgent pops serve the left end: urgent entries (LIFO among
     themselves), then the oldest bulk *)
  let pop_urgent () =
    match Sh.pop ~urgent:true t ~key with
    | `Value v -> v
    | `Empty | `Timeout -> Alcotest.fail "unexpected empty"
  in
  Alcotest.(check int) "latest urgent first" 11 (pop_urgent ());
  Alcotest.(check int) "then earlier urgent" 10 (pop_urgent ());
  Alcotest.(check int) "then oldest bulk" 1 (pop_urgent ());
  (* bulk pops serve the right end: newest bulk *)
  match Sh.pop t ~key with
  | `Value v -> Alcotest.(check int) "bulk pop takes newest" 3 v
  | `Empty | `Timeout -> Alcotest.fail "unexpected empty"

(* --- cross-shard overflow and stealing --- *)

let test_cross_shard_overflow () =
  let t = Sh.create ~shards:2 ~capacity:2 () in
  let key = 0 in
  let home = Sh.shard_of t ~key in
  (* four pushes on one key: two land home, two overflow cross-shard
     (Reject shards, so the home's policy surfaces `Full) *)
  for i = 1 to 4 do
    match Sh.push t ~key i with
    | `Okay -> ()
    | `Full | `Timeout -> Alcotest.failf "push %d refused with room left" i
  done;
  let s = Sh.stats t in
  Alcotest.(check int) "two landed home" 2 s.Sharded.per_shard_pushed.(home);
  Alcotest.(check int) "two rerouted" 2 s.Sharded.per_shard_pushed.(1 - home);
  (* both shards now full: genuine saturation *)
  Alcotest.(check bool) "service full at capacity" true
    (Sh.push t ~key 5 = `Full);
  Alcotest.(check int) "all four conserved" 4
    (List.length (Sh.drain t))

(* The first key from 1 up whose home is not [shard]. *)
let key_off t ~shard =
  let rec find k = if Sh.shard_of t ~key:k <> shard then k else find (k + 1) in
  find 1

(* A steal serves one item popped off the victim in place: nothing is
   parked on the popping key's home. *)
let test_steal_rebalancing () =
  let t = Sh.create ~shards:4 ~capacity:64 () in
  (* load one shard through its own key, then pop through a key homed
     elsewhere: the empty home must steal from the loaded victim *)
  let loaded_key = 0 in
  let victim = Sh.shard_of t ~key:loaded_key in
  for i = 1 to 12 do
    ignore (Sh.push t ~key:loaded_key i)
  done;
  let other_key = key_off t ~shard:victim in
  (match Sh.pop t ~key:other_key with
  | `Value v -> Alcotest.(check int) "the victim's newest bulk item" 12 v
  | `Empty | `Timeout -> Alcotest.fail "steal scan found nothing");
  let s = Sh.stats t in
  let resident i =
    List.length
      (Deque.Array_deque.Lockfree.unsafe_to_list (Sh.P.primary (Sh.shard t i)))
  in
  Alcotest.(check int) "the steal is the victim's serve" 1
    s.Sharded.per_shard_popped.(victim);
  Alcotest.(check int) "the victim still holds the rest" 11 (resident victim);
  Alcotest.(check int) "nothing parked on the popping key's home" 0
    (resident (Sh.shard_of t ~key:other_key));
  Alcotest.(check int) "every item still present" 11
    (List.length (Sh.drain t))

(* The routed path allocates nothing on top of the deque it reaches: a
   push costs what the bare deque's [push_right] costs, a pop served
   at home costs its [pop_left], a steal the victim's [pop_right] (the
   empty pops on the way cost nothing), and a pop over four empty
   shards costs nothing.  A deadline adds nothing either: it is one
   int-ns expiry on [Dcas.Clock], not a boxed float in an option.  The
   bare deque is measured here beside the routed calls, so the pin
   holds whatever the DCAS layer underneath allocates. *)
let test_routed_allocation () =
  let module A = Deque.Array_deque.Lockfree in
  (* [per_call] runs its thunk 10 030 times *)
  let calls = 10_030 in
  let per_call = Test_support.words_per_call in
  let pushed = function
    | `Okay -> ()
    | `Full | `Timeout -> Alcotest.fail "push refused"
  in
  let served = function
    | `Value _ -> ()
    | `Empty | `Timeout -> Alcotest.fail "pop found nothing"
  in
  let fill push =
    for _ = 1 to calls do
      pushed (push ())
    done
  in
  let d = A.create ~capacity:calls () in
  let t =
    Sh.create ~full:Deque.Policy.Reject ~shards:4 ~capacity:(2 * calls) ()
  in
  (* hoisted: an option built at the call site would box per call *)
  let deadline = Some 60. in
  let key = 0 in
  let thief = key_off t ~shard:(Sh.shard_of t ~key) in
  let push_right = per_call (fun () -> pushed (A.push_right d 1)) in
  let routed_push = per_call (fun () -> pushed (Sh.push t ~key 1)) in
  Alcotest.(check (float 0.)) "push: the deque's push_right, nothing more"
    push_right routed_push;
  let deadlined_push =
    per_call (fun () -> pushed (Sh.push ?deadline t ~key 1))
  in
  Alcotest.(check (float 0.)) "deadlined push: the deque's push_right"
    push_right deadlined_push;
  let pop_left = per_call (fun () -> served (A.pop_left d)) in
  let home_hit = per_call (fun () -> served (Sh.pop ~urgent:true t ~key)) in
  Alcotest.(check (float 0.)) "home-hit urgent pop: the deque's pop_left"
    pop_left home_hit;
  let deadlined_hit =
    per_call (fun () -> served (Sh.pop ?deadline ~urgent:true t ~key))
  in
  Alcotest.(check (float 0.))
    "deadlined home-hit urgent pop: the deque's pop_left" pop_left
    deadlined_hit;
  fill (fun () -> A.push_right d 1);
  fill (fun () -> Sh.push t ~key 1);
  let pop_right = per_call (fun () -> served (A.pop_right d)) in
  let steal = per_call (fun () -> served (Sh.pop ~urgent:true t ~key:thief)) in
  Alcotest.(check (float 0.)) "stealing pop: the victim's pop_right" pop_right
    steal;
  let empty =
    per_call (fun () ->
        match Sh.pop ~urgent:true t ~key with
        | `Empty -> ()
        | `Value _ | `Timeout -> Alcotest.fail "pop of an empty service")
  in
  Alcotest.(check (float 0.)) "pop over four empty shards" 0. empty

let test_adoption () =
  let t = Sh.create ~shards:3 ~capacity:32 () in
  let key = 0 in
  let home = Sh.shard_of t ~key in
  for i = 1 to 10 do
    ignore (Sh.push t ~key i)
  done;
  Sh.quarantine t ~shard:home;
  let moved = Sh.adopt t ~shard:home in
  Alcotest.(check int) "all ten adopted" 10 moved;
  (* the key now routes to a survivor, where the items landed *)
  let got = ref 0 in
  let rec drain () =
    match Sh.pop t ~key with
    | `Value _ ->
        incr got;
        drain ()
    | `Empty | `Timeout -> ()
  in
  drain ();
  Alcotest.(check int) "all ten served after adoption" 10 !got

(* --- supervised service: fast smoke, storm and freeze tiers --- *)

module Svc = Worksteal.Shard_service

let base_config =
  {
    Svc.default with
    Svc.shards = 2;
    producers = 1;
    consumers = 2;
    capacity = 64;
    rate = 0.;
    sup = { Worksteal.Supervisor.default with silence_after = 1.0 };
  }

let check_conserved r =
  if not (Svc.conserved r) then
    Alcotest.failf "conservation violated: %s"
      (Format.asprintf "%a" Svc.pp_report r)

let test_service_smoke () =
  let r = Svc.Array_service.run ~config:base_config ~duration:0.2 () in
  check_conserved r;
  Alcotest.(check bool) "traffic flowed" true (r.Svc.executed > 0);
  Alcotest.(check int) "no deaths uninjected" 0 r.Svc.killed;
  Alcotest.(check int) "no overshoot without a deadline" 0
    r.Svc.overshoot_max_ns

(* Open file descriptors, or [None] where /proc is missing. *)
let fd_count () =
  match Sys.readdir "/proc/self/fd" with
  | fds -> Some (Array.length fds)
  | exception Sys_error _ -> None

let check_fds ~before =
  match (before, fd_count ()) with
  | Some a, Some b -> Alcotest.(check int) "no descriptor leaked" a b
  | _ -> ()

exception Driver_failed

(* A driver that raises must not leave the run behind: [run] stops the
   producers, joins every worker and the monitor, closes its wake pipe
   and re-raises.  Before the fix the exception escaped while the
   workers kept running and calling the hooks. *)
let test_raising_driver_joins () =
  let hooks = Atomic.make 0 in
  let on_push ~tid:_ ~ns:_ _ = Atomic.incr hooks in
  let on_pop ~tid:_ ~ns:_ _ = Atomic.incr hooks in
  let driver () =
    Unix.sleepf 0.05;
    raise Driver_failed
  in
  let before = fd_count () in
  (match
     Svc.Array_service.run ~config:base_config ~on_push ~on_pop ~driver
       ~duration:0. ()
   with
  | _ -> Alcotest.fail "run returned although its driver raised"
  | exception Driver_failed -> ());
  let at_return = Atomic.get hooks in
  Unix.sleepf 0.1;
  Alcotest.(check bool) "traffic flowed before the raise" true (at_return > 0);
  Alcotest.(check int) "no hook fires after run returned" at_return
    (Atomic.get hooks);
  check_fds ~before

(* The wake path: at 1 000 req/s one idle consumer parks as soon as
   nothing is pending and each push wakes it, so it makes about two
   empty scans per served request (one after serving, one after a
   park that timed out between arrivals).  The bound of 8 sits far
   below the 32 a consumer makes when it parks only after a run of 32
   no-finds and sleeps the park out. *)
let test_idle_consumer_woken () =
  let cfg =
    { base_config with Svc.producers = 1; consumers = 1; rate = 1_000. }
  in
  let before = fd_count () in
  let r = Svc.Array_service.run ~config:cfg ~duration:0.3 () in
  check_conserved r;
  Alcotest.(check bool) "traffic flowed" true (r.Svc.executed > 0);
  (* fault-free, no deadline, Spill: every granted unit lands and is
     served, so the landing and serve counts the report takes from
     Sharded agree with the service's own unit grants *)
  Alcotest.(check int) "pushed_ok = spawned" r.Svc.spawned r.Svc.pushed_ok;
  Alcotest.(check int) "per-shard serves sum to executed" r.Svc.executed
    (Array.fold_left ( + ) 0 r.Svc.per_shard_popped);
  if r.Svc.empty_scans > 8 * r.Svc.executed then
    Alcotest.failf "%d empty scans for %d served requests, above 8 per request"
      r.Svc.empty_scans r.Svc.executed;
  check_fds ~before

(* Open-loop pacing starts at the first request: request k is due
   [k / rate] after request 0 was released.  The producer's slot is
   zombified for its first 5 ms, so request 0 starts late.  A schedule
   anchored before the loop read 10 requests as owed at the cure and
   started them in one burst, up to 5 ms before they were due.  Starts
   are taken from the hooks on [Dcas.Clock], as the repository
   benchmark takes them; request 0's hook start trails its release by
   the first call's cold path (about 3 us), well inside the 50 us
   allowed. *)
let test_paced_from_first_request () =
  Harness.Fault.reset ();
  let rate = 2_000. in
  let cfg = { base_config with Svc.producers = 1; consumers = 1; rate } in
  let producer = 0 in
  let starts = Array.make 1024 0 and sent = ref 0 in
  (* runs on the producer domain only; read after [run] joins it *)
  let on_push ~tid:_ ~ns _ =
    if !sent < Array.length starts then
      starts.(!sent) <- Dcas.Clock.now_ns () - int_of_float ns;
    incr sent
  in
  let driver () =
    Unix.sleepf 0.005;
    Harness.Stall.Zombie.cure ~tid:producer;
    Unix.sleepf 0.030
  in
  Harness.Stall.Zombie.zombify ~tid:producer;
  let r =
    Fun.protect ~finally:Harness.Fault.reset (fun () ->
        Svc.Array_service.run ~config:cfg ~on_push ~driver ~duration:0. ())
  in
  check_conserved r;
  let n = min !sent (Array.length starts) in
  if n < 10 then Alcotest.failf "only %d requests sent in 30 ms" n;
  let earliest = ref 0 and worst = ref 0 in
  for k = 1 to n - 1 do
    let due = starts.(0) + int_of_float (float_of_int k *. 1e9 /. rate) in
    if due - starts.(k) > !earliest then begin
      earliest := due - starts.(k);
      worst := k
    end
  done;
  if !earliest > 50_000 then
    Alcotest.failf "request %d of %d started %d ns before it was due" !worst n
      !earliest

(* Multi-domain conservation under a crash storm: probabilistic
   fail-stop deaths land mid-traffic (some mid-CASN); the monitor
   adopts the dead consumers' shards and spawns replacements, and the
   books still balance: spawned = executed + reconciled, drain empty. *)
module Fault_svc =
  Worksteal.Shard_service.Make
    (Deque.Array_deque.Make (Harness.Fault.Mem (Dcas.Mem_lockfree)))

let storm_config =
  {
    base_config with
    Svc.producers = 2;
    consumers = 2;
    sup = { Worksteal.Supervisor.default with silence_after = 0. };
  }

let test_service_crash_storm () =
  Harness.Fault.reset ();
  Dcas.Mem_lockfree.reset_stats ();
  Harness.Crash.configure ~prob:0.0005 ~mid_casn_prob:0.5 ~max_kills:2
    ~seed:0xE24 ();
  let r =
    Fun.protect ~finally:Harness.Crash.disarm (fun () ->
        Fault_svc.run ~config:storm_config ~duration:0.6 ())
  in
  check_conserved r;
  Alcotest.(check bool) "the storm landed" true (r.Svc.killed >= 1);
  Alcotest.(check bool) "every death replaced" true
    (r.Svc.replacements >= r.Svc.killed);
  Alcotest.(check bool) "traffic survived the deaths" true
    (r.Svc.executed > 0)

(* Frozen-shard survivor progress, mirroring E19: one consumer domain
   is parked mid-operation at an instrumented memory point; the other
   consumer keeps serving the whole service (steal scan included), and
   after the thaw the books balance. *)
let test_service_frozen_shard () =
  Harness.Fault.reset ();
  let cfg = { base_config with Svc.producers = 1; consumers = 2 } in
  let frozen_tid = cfg.Svc.producers in
  let served_in_freeze = Atomic.make 0 in
  let freeze_window = Atomic.make false in
  let on_pop ~tid ~ns:_ out =
    match out with
    | `Value _ when tid <> frozen_tid && Atomic.get freeze_window ->
        Atomic.incr served_in_freeze
    | _ -> ()
  in
  let driver () =
    Unix.sleepf 0.1;
    Harness.Stall.Freezer.freeze ~tid:frozen_tid;
    Atomic.set freeze_window true;
    Unix.sleepf 0.25;
    Atomic.set freeze_window false;
    Harness.Stall.Freezer.thaw_all ();
    Unix.sleepf 0.05
  in
  let r, hits =
    Fun.protect
      ~finally:Harness.Fault.reset
      (fun () ->
        let r = Fault_svc.run ~config:cfg ~on_pop ~driver ~duration:0.4 () in
        (r, Harness.Stall.Freezer.freeze_hits ()))
  in
  check_conserved r;
  Alcotest.(check bool) "freeze landed" true (hits >= 1);
  Alcotest.(check bool) "survivor served during the freeze" true
    (Atomic.get served_in_freeze >= 1)

(* Silence -> fence -> replace on the service, the twin of the
   scheduler case in test_crash.ml: after about 200 serves the first
   consumer arms a stall inside its next pop and sleeps there for six
   times [silence_after].  The monitor presumes it dead, fences it and
   adopts its home shard; when it wakes it finishes that pop (serving
   what it took) and retires at its fence check.  Nothing is lost, so
   nothing may be written off. *)
let test_silent_consumer_fenced () =
  let cfg =
    {
      base_config with
      Svc.producers = 1;
      consumers = 2;
      sup = { Worksteal.Supervisor.default with silence_after = 0.05 };
    }
  in
  let victim = cfg.Svc.producers in
  let served = Atomic.make 0 and armed = Atomic.make false in
  let on_pop ~tid ~ns:_ out =
    match out with
    | `Value _ when tid = victim ->
        if
          Atomic.fetch_and_add served 1 >= 200
          && Atomic.compare_and_set armed false true
        then Harness.Stall.request ~after_ops:3 ~duration:0.3
    | _ -> ()
  in
  let r = Fault_svc.run ~config:cfg ~on_pop ~duration:0.6 () in
  check_conserved r;
  Alcotest.(check bool) "the stall was armed" true (Atomic.get armed);
  Alcotest.(check bool) "the sleeper was presumed dead" true
    (r.Svc.presumed_dead >= 1);
  Alcotest.(check bool) "its home shard was adopted" true
    (r.Svc.adoptions >= 1);
  Alcotest.(check int) "nothing written off" 0 r.Svc.reconciled

(* False-silence / false-zombie regression (the supervisor
   misclassification hazard): a near-idle service — producers rate-
   limited to a trickle — leaves the consumers parked in their idle
   backoff most of the run.  With aggressive detection thresholds
   (well below the run length) neither detector may fire: the idling
   flag covers the deliberate park, and empty scans keep the progress
   counter moving between parks.  Before the fix, an idle consumer
   descheduled inside its park read as silent, and a consumer whose
   ticks froze together with its progress (an oversubscribed box)
   read as a zombie. *)
let test_idle_not_misclassified () =
  let cfg =
    {
      base_config with
      Svc.producers = 1;
      consumers = 2;
      rate = 20.;
      (* a trickle: consumers idle almost always *)
      sup =
        { Worksteal.Supervisor.silence_after = 0.05; zombie_after = 0.05 };
    }
  in
  let r = Svc.Array_service.run ~config:cfg ~duration:0.5 () in
  check_conserved r;
  Alcotest.(check int) "no idle consumer presumed dead" 0 r.Svc.presumed_dead;
  Alcotest.(check int) "no idle consumer fenced as zombie" 0
    r.Svc.zombies_fenced;
  Alcotest.(check int) "no replacements without a failure" 0
    r.Svc.replacements

(* Zombie fencing: a consumer whose heartbeat keeps ticking while it
   does no work (Harness.Stall.Zombie) must be caught by the
   progress-based detector, fenced, and replaced — and the books must
   still balance. *)
let test_zombie_fenced () =
  Harness.Fault.reset ();
  let cfg =
    {
      base_config with
      Svc.producers = 1;
      consumers = 2;
      sup =
        { Worksteal.Supervisor.silence_after = 0.; zombie_after = 0.05 };
    }
  in
  let victim = cfg.Svc.producers in
  let driver () =
    Unix.sleepf 0.1;
    Harness.Stall.Zombie.zombify ~tid:victim;
    Unix.sleepf 0.3;
    Harness.Stall.Zombie.cure ~tid:victim;
    Unix.sleepf 0.1
  in
  let r, bites =
    Fun.protect
      ~finally:Harness.Fault.reset
      (fun () ->
        let r = Svc.Array_service.run ~config:cfg ~driver ~duration:0.4 () in
        (r, Harness.Stall.Zombie.bites ()))
  in
  check_conserved r;
  Alcotest.(check bool) "the zombie bit" true (bites >= 1);
  Alcotest.(check bool) "fenced by progress detection" true
    (r.Svc.zombies_fenced >= 1);
  Alcotest.(check bool) "and replaced" true
    (r.Svc.replacements >= r.Svc.zombies_fenced);
  Alcotest.(check bool) "traffic survived the zombie" true
    (r.Svc.executed > 0)

(* Deadline enforcement at 0.2ms budgets, with two producers spinning
   between refills beside one consumer.  The first requests that wait
   past their budget in queue (for a CPU, or behind a burst) are shed
   at dequeue; their sojourns lift each shard's p99 above the budget,
   and admission then refuses almost every later request: refused
   requests never reach a consumer, so the estimate stops moving.  On a 2-vCPU VM a run sheds about 20-45
   requests at dequeue and refuses about 1 540 of about 1 610.  Sheds
   must be first-class outcomes inside the conservation law, and no
   served op may overshoot its stamped deadline beyond a scheduling
   epsilon. *)
let test_deadline_sheds_conserve () =
  let cfg =
    {
      base_config with
      Svc.producers = 2;
      consumers = 1;
      rate = 2_000.;
      burst = 64;
      deadline = Some 0.0002;
      admission = true;
    }
  in
  let r = Svc.Array_service.run ~config:cfg ~duration:0.4 () in
  check_conserved r;
  Alcotest.(check bool) "traffic was offered" true (r.Svc.spawned > 0);
  Alcotest.(check bool) "sheds happened" true (Svc.shed r >= 1);
  (* executed may legitimately be 0 on a single-core box (every item
     expires in queue); what must hold is that every shed op stayed on
     the books — conservation above — and that nothing that WAS served
     finished far past its stamped deadline *)
  Alcotest.(check bool) "no served op finished far past its deadline" true
    (r.Svc.overshoot_max_ns <= 50_000_000)

(* --- admission control --- *)

let test_admission () =
  let t = Sh.create ~shards:2 ~capacity:8 () in
  let key = 0 in
  let shard = Sh.shard_of t ~key in
  for _ = 1 to 31 do
    Sh.note_sojourn t ~shard ~ns:1_000_000
  done;
  Alcotest.(check (option (float 0.))) "no estimate below 32 observations"
    None (Sh.sojourn_p99_ns t ~shard);
  Alcotest.(check bool) "cold start admits" true
    (Sh.admit t ~key ~budget:0.0005);
  for _ = 32 to 100 do
    Sh.note_sojourn t ~shard ~ns:1_000_000
  done;
  (match Sh.sojourn_p99_ns t ~shard with
  | None -> Alcotest.fail "no estimate after 100 observations"
  | Some p99 ->
      Alcotest.(check bool)
        (Printf.sprintf "p99 %.0fns within [1ms, 1.032ms]" p99)
        true
        (p99 >= 1e6 && p99 <= 1.032e6));
  Alcotest.(check bool) "2ms budget admitted" true
    (Sh.admit t ~key ~budget:0.002);
  Alcotest.(check bool) "0.5ms budget refused" false
    (Sh.admit t ~key ~budget:0.0005)

(* [admit] judges every request at enqueue, so it allocates nothing:
   one count pass, an int rank walk and a float compare (22 words per
   call while it counted twice and boxed an optional float). *)
let test_admission_allocation () =
  let t = Sh.create ~shards:2 ~capacity:8 () in
  let key = 0 in
  let shard = Sh.shard_of t ~key in
  for i = 1 to 10_000 do
    Sh.note_sojourn t ~shard ~ns:(i * 100)
  done;
  let admitted = ref 0 in
  let words budget =
    Test_support.words_per_call (fun () ->
        if Sh.admit t ~key ~budget then incr admitted)
  in
  Alcotest.(check (float 0.)) "admitting: 0 words per call" 0. (words 0.002);
  Alcotest.(check (float 0.)) "refusing: 0 words per call" 0. (words 0.0005);
  Alcotest.(check int) "decisions: 2ms admitted, 0.5ms refused" 10_030
    !admitted

let () =
  let tiered = Test_support.tiered in
  Alcotest.run "sharded"
    [
      ( "routing",
        [
          Alcotest.test_case "hash spreads the key space" `Quick
            test_routing_spread;
          QCheck_alcotest.to_alcotest qcheck_routing_deterministic;
          Alcotest.test_case "min_int hash stays in range" `Quick
            test_routing_min_int_hash;
          Alcotest.test_case "routes around quarantine" `Quick
            test_route_skips_quarantined;
        ] );
      ( "data plane",
        [
          Alcotest.test_case "sequential conservation" `Quick
            test_sequential_conservation;
          Alcotest.test_case "priority lanes" `Quick test_priority_lanes;
          Alcotest.test_case "cross-shard overflow" `Quick
            test_cross_shard_overflow;
          Alcotest.test_case "steal rebalancing" `Quick
            test_steal_rebalancing;
          Alcotest.test_case "quarantine and adoption" `Quick
            test_adoption;
          Alcotest.test_case "p99 sojourn admission" `Quick test_admission;
          Alcotest.test_case "routed path allocates only the deque's words"
            `Quick test_routed_allocation;
          Alcotest.test_case "admission allocates nothing" `Quick
            test_admission_allocation;
        ] );
      ( "supervised service",
        [
          Alcotest.test_case "idle consumer woken by push" `Quick
            test_idle_consumer_woken;
          Alcotest.test_case "raising driver: joined, re-raised, no leak"
            `Quick test_raising_driver_joins;
          Alcotest.test_case "open loop paced from its first request" `Quick
            test_paced_from_first_request;
          tiered "smoke: closed-loop traffic conserves" `Slow
            test_service_smoke;
          tiered "crash storm: conservation + replacement" `Slow
            test_service_crash_storm;
          tiered "frozen shard: survivors progress (E19 mirror)" `Slow
            test_service_frozen_shard;
          tiered "silent consumer fenced, nothing written off" `Slow
            test_silent_consumer_fenced;
          tiered "idle consumers are never misclassified" `Slow
            test_idle_not_misclassified;
          tiered "zombie consumer fenced and replaced" `Slow
            test_zombie_fenced;
          tiered "deadline sheds stay on the books" `Slow
            test_deadline_sheds_conserve;
        ] );
    ]
