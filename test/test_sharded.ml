(* The sharded service front end (Core.Sharded + Worksteal.Shard_service,
   experiment E24): routing determinism, priority lanes, cross-shard
   overflow, steal rebalancing, quarantine/adoption, and — the
   robustness core — service-wide conservation under multi-domain
   crash storms and a frozen-shard survivor-progress check mirroring
   E19's empirical lock-freedom suite. *)

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

(* --- cross-shard overflow and steal rebalancing --- *)

let test_cross_shard_overflow () =
  let t = Sh.create ~shards:2 ~capacity:2 () in
  let key = 0 in
  (* four pushes on one key: two land home, two overflow cross-shard
     (Reject shards, so the home's policy surfaces `Full) *)
  for i = 1 to 4 do
    match Sh.push t ~key i with
    | `Okay -> ()
    | `Full | `Timeout -> Alcotest.failf "push %d refused with room left" i
  done;
  let s = Sh.stats t in
  Alcotest.(check int) "two rerouted" 2 s.Sharded.rerouted;
  (* both shards now full: genuine saturation *)
  Alcotest.(check bool) "service full at capacity" true
    (Sh.push t ~key 5 = `Full);
  Alcotest.(check int) "all four conserved" 4
    (List.length (Sh.drain t))

let test_steal_rebalancing () =
  let t = Sh.create ~shards:4 ~capacity:64 ~steal_batch:4 () in
  (* load one shard through its own key, then pop through a key homed
     elsewhere: the empty home must steal from the loaded victim *)
  let loaded_key = 0 in
  let home = Sh.shard_of t ~key:loaded_key in
  for i = 1 to 12 do
    ignore (Sh.push t ~key:loaded_key i)
  done;
  let other_key =
    let rec find k =
      if Sh.shard_of t ~key:k <> home then k else find (k + 1)
    in
    find 1
  in
  (match Sh.pop t ~key:other_key with
  | `Value _ -> ()
  | `Empty | `Timeout -> Alcotest.fail "steal scan found nothing");
  let s = Sh.stats t in
  Alcotest.(check bool) "steals recorded" true (s.Sharded.stolen >= 1);
  Alcotest.(check bool) "batch moved extra items home" true
    (s.Sharded.stolen > 1);
  Alcotest.(check int) "every item still present" 11
    (List.length (Sh.drain t))

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
        {
          Worksteal.Supervisor.default with
          silence_after = 0.05;
          zombie_after = 0.05;
        };
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
        {
          Worksteal.Supervisor.default with
          silence_after = 0.;
          zombie_after = 0.05;
        };
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

(* Deadline enforcement: with a budget far below the service's idle
   backoff the tail of every burst expires in queue; sheds must be
   first-class outcomes inside the conservation law, and no served op
   may overshoot its stamped deadline beyond a scheduling epsilon. *)
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

let () =
  let tiered = Test_support.tiered in
  Alcotest.run "sharded"
    [
      ( "routing",
        [
          Alcotest.test_case "hash spreads the key space" `Quick
            test_routing_spread;
          QCheck_alcotest.to_alcotest qcheck_routing_deterministic;
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
        ] );
      ( "supervised service",
        [
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
