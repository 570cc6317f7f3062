(* Experiment E14: lock-freedom (Theorems 3.1 and 4.1's non-blocking
   half), tested two ways.

   Model-checker leg: freeze one thread at EVERY one of its reachable
   step counts and verify all other threads still complete.  This
   covers the paper's subtle cases: a thread frozen between the logical
   and physical phases of a pop leaves a deleted mark that others must
   complete or work around (Section 4), and a thread frozen holding a
   CASN descriptor in the lock-free memory model must be helped.

   Real-domain leg: a worker sleeps mid-operation (between two of its
   shared-memory accesses, via the stall-instrumented memory) while
   others hammer the deque; with the DCAS deques the others make
   progress, with the lock-based baseline an equivalent sleep holding
   the lock stops everyone. *)

open Spec.Op

let assert_nonblocking name scenario ~victim =
  match Modelcheck.Explorer.check_nonblocking scenario ~victim with
  | Ok stall_points ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: survived all %d stall points" name stall_points)
        true (stall_points > 0)
  | Error j -> Alcotest.failf "%s: blocked at stall point %d" name j

let test_array_nonblocking () =
  let scenario =
    Modelcheck.Scenario.array_deque ~name:"nb-array" ~length:3 ~prefill:[ 1 ]
      [ [ Pop_right; Push_right 2 ]; [ Pop_left ]; [ Push_left 3 ] ]
  in
  assert_nonblocking "array, victim 0" scenario ~victim:0;
  assert_nonblocking "array, victim 1" scenario ~victim:1

let test_list_nonblocking () =
  let scenario =
    Modelcheck.Scenario.list_deque ~name:"nb-list" ~prefill:[ 1; 2 ]
      [ [ Pop_right; Push_right 3 ]; [ Pop_left ]; [ Push_left 4 ] ]
  in
  assert_nonblocking "list, victim 0" scenario ~victim:0;
  assert_nonblocking "list, victim 1" scenario ~victim:1

let test_list_nonblocking_deletion_phase () =
  (* victim frozen while completing Figure 16's physical deletions *)
  let scenario =
    Modelcheck.Scenario.list_deque ~name:"nb-del" ~prefill:[ 1; 2 ]
      ~setup:[ Pop_right; Pop_left ]
      [ [ Push_right 3 ]; [ Push_left 4 ]; [ Pop_right ] ]
  in
  assert_nonblocking "list deletion, victim 0" scenario ~victim:0;
  assert_nonblocking "list deletion, victim 2" scenario ~victim:2

let test_dummy_nonblocking () =
  let scenario =
    Modelcheck.Scenario.list_deque_dummy ~name:"nb-dummy" ~prefill:[ 1; 2 ]
      ~setup:[ Pop_right; Pop_left ]
      [ [ Push_right 3 ]; [ Push_left 4 ] ]
  in
  assert_nonblocking "dummy, victim 0" scenario ~victim:0;
  assert_nonblocking "dummy, victim 1" scenario ~victim:1

let test_st_nonblocking () =
  (* the single-word-CAS competitor: a thread frozen between the mark
     and the physical unlink of a pop leaves a marked link that the
     others must help past *)
  let scenario =
    Modelcheck.Scenario.st_deque ~name:"nb-st" ~prefill:[ 1; 2 ]
      [ [ Pop_right; Push_right 3 ]; [ Pop_left ]; [ Push_left 4 ] ]
  in
  assert_nonblocking "st, victim 0" scenario ~victim:0;
  assert_nonblocking "st, victim 1" scenario ~victim:1

(* --- E22 model-checker leg: fail-stop instead of freeze ---

   The victim is killed for good at every reachable crash point —
   including mid-CASN with an installed descriptor — and beyond the
   survivors completing, the structure must be fully recoverable: a
   survivor drains it to empty (helping the victim's orphaned
   descriptor on the way) and the contents balance the completed
   operations up to the victim's single maybe-committed operation. *)

let assert_crash_recovers name scenario ~victim =
  match Modelcheck.Explorer.check_crash scenario ~victim with
  | Ok crash_points ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: recovered at all %d crash points" name
           crash_points)
        true (crash_points > 0)
  | Error j -> Alcotest.failf "%s: unrecovered at crash point %d" name j

let test_array_crash_recovery () =
  let scenario =
    Modelcheck.Scenario.array_deque ~name:"cr-array" ~length:3 ~prefill:[ 1 ]
      [ [ Pop_right; Push_right 2 ]; [ Pop_left ]; [ Push_left 3 ] ]
  in
  assert_crash_recovers "array, victim 0" scenario ~victim:0;
  assert_crash_recovers "array, victim 1" scenario ~victim:1

let test_list_crash_recovery () =
  let scenario =
    Modelcheck.Scenario.list_deque ~name:"cr-list" ~prefill:[ 1; 2 ]
      [ [ Pop_right; Push_right 3 ]; [ Pop_left ]; [ Push_left 4 ] ]
  in
  assert_crash_recovers "list, victim 0" scenario ~victim:0;
  assert_crash_recovers "list, victim 1" scenario ~victim:1

let test_dummy_crash_recovery () =
  let scenario =
    Modelcheck.Scenario.list_deque_dummy ~name:"cr-dummy" ~prefill:[ 1; 2 ]
      ~setup:[ Pop_right; Pop_left ]
      [ [ Push_right 3 ]; [ Push_left 4 ] ]
  in
  assert_crash_recovers "dummy, victim 0" scenario ~victim:0;
  assert_crash_recovers "dummy, victim 1" scenario ~victim:1

let test_casn_crash_recovery () =
  let scenario =
    Modelcheck.Scenario.list_deque_casn ~name:"cr-casn" ~prefill:[ 1; 2 ]
      [ [ Pop_right; Push_right 3 ]; [ Pop_left ] ]
  in
  assert_crash_recovers "casn, victim 0" scenario ~victim:0;
  assert_crash_recovers "casn, victim 1" scenario ~victim:1

let test_st_crash_recovery () =
  let scenario =
    Modelcheck.Scenario.st_deque ~name:"cr-st" ~prefill:[ 1; 2 ]
      [ [ Pop_right; Push_right 3 ]; [ Pop_left ] ]
  in
  assert_crash_recovers "st, victim 0" scenario ~victim:0;
  assert_crash_recovers "st, victim 1" scenario ~victim:1

(* --- Real domains: stall injection --- *)

(* The lock-free deque over the stall-instrumented memory: a victim
   sleeping mid-operation must not prevent others from completing. *)
module Stalling_mem = Harness.Fault.Mem (Dcas.Mem_lockfree)
module Stalling_deque = Deque.Array_deque.Make (Stalling_mem)

let test_real_stall_lockfree () =
  let d = Stalling_deque.make ~length:64 () in
  for i = 1 to 8 do
    ignore (Stalling_deque.push_right d i)
  done;
  let others_done = Atomic.make 0 in
  let victim () =
    (* sleep in the middle of a push: after its 2nd shared access *)
    Harness.Stall.request ~after_ops:2 ~duration:0.4;
    ignore (Stalling_deque.push_right d 99)
  in
  let worker () =
    for i = 1 to 3000 do
      ignore (Stalling_deque.push_left d i);
      ignore (Stalling_deque.pop_right d)
    done;
    Atomic.incr others_done
  in
  let t0 = Unix.gettimeofday () in
  let v = Domain.spawn victim in
  let w1 = Domain.spawn worker and w2 = Domain.spawn worker in
  Domain.join w1;
  Domain.join w2;
  let workers_elapsed = Unix.gettimeofday () -. t0 in
  Domain.join v;
  Alcotest.(check int) "both workers completed" 2 (Atomic.get others_done);
  (* the workers must not have waited for the victim's 400ms sleep on
     every operation; generous bound to stay robust on a loaded box *)
  Alcotest.(check bool)
    (Printf.sprintf "workers unimpeded (%.2fs)" workers_elapsed)
    true (workers_elapsed < 30.)

(* The lock-based deque under the same sleep, held inside the critical
   section: workers cannot complete until the victim wakes. *)
let test_real_stall_lock () =
  let d = Baselines.Lock_deque.create ~capacity:64 () in
  ignore (Baselines.Lock_deque.push_right d 1);
  let sleep = 0.3 in
  let worker_latency = ref 0. in
  let started = Atomic.make false in
  let victim () =
    Baselines.Lock_deque.with_lock_held d (fun () ->
        Atomic.set started true;
        Unix.sleepf sleep)
  in
  let worker () =
    while not (Atomic.get started) do
      Domain.cpu_relax ()
    done;
    let t0 = Unix.gettimeofday () in
    ignore (Baselines.Lock_deque.pop_right d);
    worker_latency := Unix.gettimeofday () -. t0
  in
  let v = Domain.spawn victim in
  let w = Domain.spawn worker in
  Domain.join v;
  Domain.join w;
  Alcotest.(check bool)
    (Printf.sprintf "worker blocked ~%.0fms behind the lock holder"
       (!worker_latency *. 1000.))
    true
    (!worker_latency >= sleep *. 0.5)

(* --- E19: empirical lock-freedom under cross-domain freezes --- *)

(* The adversary made executable on real domains: K = threads-1 worker
   domains are frozen at shared-memory access points mid-operation (via
   Stall.Freezer through the instrumented memory, with chaos armed so
   spurious DCAS failures land on the survivors too), and
   the one surviving domain must keep completing operations — the
   operational content of Theorems 3.1/4.1's non-blocking half.  The
   turn-passing Buggy_spin_deque must fail this test: its survivor
   blocks, and the progress watchdog converts the global stall into a
   diagnostic instead of a hang. *)

module Freeze_mem = Harness.Fault.Mem (Dcas.Mem_lockfree)
module F_array = Deque.Array_deque.Make (Freeze_mem)
module F_list = Deque.List_deque.Make (Freeze_mem)
module F_dummy = Deque.List_deque_dummy.Make (Freeze_mem)
module F_casn = Deque.List_deque_casn.Make (Freeze_mem)
module F_buggy = Baselines.Buggy_spin_deque.Make (Freeze_mem)

module F_st =
  Baselines.St_deque.Make (Baselines.St_deque.Of_casn (Freeze_mem))

let survivor_ops = 1_000

(* Spawn [threads] workers looping [op]; once everyone has warmed up,
   freeze workers 1..threads-1, then watch whether worker 0 completes
   [survivor_ops] more operations within [time_budget] seconds.  With
   [fail_prob] > 0, spurious DCAS/CASN failures land on survivors and
   victims alike; no chaos delays or freezes — the freezer provides the
   (unbounded) stalls here.  Returns (survivor progressed?, park
   events, watchdog stalls). *)
let run_frozen ?watchdog ?(fail_prob = 0.) ~threads ~time_budget op =
  Harness.Fault.reset ();
  Harness.Chaos.configure ~fail_prob ~seed:0xF0E2 ();
  let stop = Atomic.make false in
  let counts = Array.init threads (fun _ -> Atomic.make 0) in
  let master = Dcas.Splitmix.create ~seed:0xF0E1 in
  let rngs = Array.init threads (fun _ -> Dcas.Splitmix.split master) in
  let worker tid () =
    Harness.Fault.enroll ~tid;
    let rng = rngs.(tid) in
    while not (Atomic.get stop) do
      op ~tid ~rng;
      Atomic.incr counts.(tid);
      Option.iter (fun w -> Harness.Watchdog.tick w ~tid) watchdog
    done
  in
  let domains = List.init threads (fun tid -> Domain.spawn (worker tid)) in
  let hard_deadline = Unix.gettimeofday () +. 60. in
  (* warm-up: every worker has completed operations *)
  while
    Array.exists (fun c -> Atomic.get c < 10) counts
    && Unix.gettimeofday () < hard_deadline
  do
    Unix.sleepf 0.002
  done;
  for tid = 1 to threads - 1 do
    Harness.Stall.Freezer.freeze ~tid
  done;
  (* every victim parked at an access point mid-operation *)
  while
    Harness.Stall.Freezer.frozen_now () < threads - 1
    && Unix.gettimeofday () < hard_deadline
  do
    Unix.sleepf 0.002
  done;
  Option.iter Harness.Watchdog.start watchdog;
  let c0 = Atomic.get counts.(0) in
  let target = c0 + survivor_ops in
  let budget_deadline = Unix.gettimeofday () +. time_budget in
  let fired () =
    match watchdog with Some w -> Harness.Watchdog.fired w | None -> false
  in
  while
    Atomic.get counts.(0) < target
    && (not (fired ()))
    && Unix.gettimeofday () < budget_deadline
  do
    Unix.sleepf 0.002
  done;
  let progressed = Atomic.get counts.(0) >= target in
  let parks = Harness.Stall.Freezer.freeze_hits () in
  Harness.Stall.Freezer.thaw_all ();
  Atomic.set stop true;
  List.iter Domain.join domains;
  let stalls =
    match watchdog with Some w -> Harness.Watchdog.stop w | None -> 0
  in
  Harness.Fault.reset ();
  (progressed, parks, stalls)

(* A balanced op mix over both ends, from the worker's own stream. *)
let mixed_op (h : int Deque.Deque_intf.handle) ~tid ~rng =
  match Dcas.Splitmix.int rng ~bound:4 with
  | 0 -> ignore (h.push_right ((tid * 1_000_000) + Dcas.Splitmix.int rng ~bound:1000))
  | 1 -> ignore (h.push_left ((tid * 1_000_000) + Dcas.Splitmix.int rng ~bound:1000))
  | 2 -> ignore (h.pop_right ())
  | _ -> ignore (h.pop_left ())

let assert_survives name (progressed, parks, _stalls) ~threads =
  Alcotest.(check bool)
    (Printf.sprintf "%s: survivor completed %d ops with %d domains frozen"
       name survivor_ops (threads - 1))
    true progressed;
  Alcotest.(check bool)
    (Printf.sprintf "%s: victims actually parked (%d park events)" name parks)
    true
    (parks >= threads - 1)

(* Three domains on one deque holding 16 items, chaos failing 10% of
   the DCASes; the survivor must keep going with both peers frozen.
   For the ST deque, a peer frozen between the mark and the unlink of
   a pop leaves a marked link the survivor must help past. *)
let test_empirical name deque () =
  let h = Deque.Deque_intf.create deque ~capacity:64 in
  for i = 1 to 16 do
    ignore (h.push_right i)
  done;
  let threads = 3 in
  run_frozen ~fail_prob:0.1 ~threads ~time_budget:30. (mixed_op h)
  |> assert_survives name ~threads

(* The planted livelock: freezing any participant of the turn-passing
   deque blocks the survivor, the validator flags it, and the watchdog
   fires a diagnostic snapshot (captured, not printed) instead of the
   test hanging. *)
let test_empirical_buggy_spin () =
  let threads = 3 in
  let d = F_buggy.make ~participants:threads ~capacity:64 () in
  let captured = ref None in
  let watchdog =
    Harness.Watchdog.create ~interval:0.02 ~stall_after:0.4
      ~stats:(fun () -> Freeze_mem.stats ())
      ~on_stall:(fun s -> captured := Some s)
      ~threads ()
  in
  (* the turn-passing deque names its participant on every call *)
  let participant tid : int Deque.Deque_intf.handle =
    {
      name = F_buggy.name;
      push_right = F_buggy.push_right d ~tid;
      push_left = F_buggy.push_left d ~tid;
      pop_right = (fun () -> F_buggy.pop_right d ~tid);
      pop_left = (fun () -> F_buggy.pop_left d ~tid);
      contents = None;
      invariant = None;
    }
  in
  let handles = Array.init threads participant in
  let progressed, _parks, stalls =
    run_frozen ~watchdog ~threads ~time_budget:10. (fun ~tid ~rng ->
        mixed_op handles.(tid) ~tid ~rng)
  in
  Alcotest.(check bool)
    "turn-passing deque blocks when a participant freezes" false progressed;
  Alcotest.(check bool)
    (Printf.sprintf "watchdog fired (%d stall episodes)" stalls)
    true (stalls > 0);
  match !captured with
  | None -> Alcotest.fail "watchdog fired but no snapshot captured"
  | Some s ->
      Alcotest.(check int)
        "snapshot covers all threads" threads
        (Array.length s.Harness.Watchdog.per_thread);
      Alcotest.(check bool)
        "snapshot waited at least the stall threshold" true
        (s.Harness.Watchdog.waited >= 0.4)

let () =
  Alcotest.run "lockfree"
    [
      ( "model checker stall points (E14)",
        [
          Alcotest.test_case "array deque" `Slow test_array_nonblocking;
          Alcotest.test_case "list deque" `Slow test_list_nonblocking;
          Alcotest.test_case "list deque deletions" `Slow
            test_list_nonblocking_deletion_phase;
          Alcotest.test_case "dummy variant" `Slow test_dummy_nonblocking;
          Alcotest.test_case "st deque" `Slow test_st_nonblocking;
        ] );
      ( "model-checked crash recovery",
        [
          Alcotest.test_case "array deque" `Slow test_array_crash_recovery;
          Alcotest.test_case "list deque" `Slow test_list_crash_recovery;
          Alcotest.test_case "dummy variant" `Slow test_dummy_crash_recovery;
          Alcotest.test_case "casn variant" `Slow test_casn_crash_recovery;
          Alcotest.test_case "st deque" `Slow test_st_crash_recovery;
        ] );
      ( "real-domain stalls (E9/E14)",
        [
          Alcotest.test_case "lock-free deque tolerates mid-op sleep" `Slow
            test_real_stall_lockfree;
          Alcotest.test_case "lock deque blocks behind sleeper" `Slow
            test_real_stall_lock;
        ] );
      ( "empirical lock-freedom, threads-1 frozen (E19)",
        [
          Alcotest.test_case "array deque survives" `Slow
            (test_empirical "array" (module F_array));
          Alcotest.test_case "list deque survives" `Slow
            (test_empirical "list" (module F_list));
          Alcotest.test_case "dummy variant survives" `Slow
            (test_empirical "dummy" (module F_dummy));
          Alcotest.test_case "casn variant survives" `Slow
            (test_empirical "3cas" (module F_casn));
          Alcotest.test_case "st deque survives" `Slow
            (test_empirical "st" (module F_st));
          Alcotest.test_case "turn-passing deque fails, watchdog fires" `Slow
            test_empirical_buggy_spin;
        ] );
    ]
