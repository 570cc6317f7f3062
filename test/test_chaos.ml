(* Chaos inside the one fault-injecting memory: disarmed it must be
   transparent; armed it must fail DCAS/CASN spuriously (and only
   those), stall deterministically from the configured seed, and count
   every injected fault.  Chaos draws after the slot checks, so a
   pending mid-CASN death that a spurious failure pre-empts falls back
   to the operation boundary.  The multi-domain case — a correct deque
   surviving heavy injected faults — is in the slow tier. *)

module C = Harness.Fault.Mem (Dcas.Mem_seq)
module Chaos = Harness.Chaos

(* Each test arms its own configuration from a clean [Fault.reset] (no
   chaos, zero counters) and ends disarmed, so the global chaos state
   never leaks between tests. *)
let with_config configure f =
  Harness.Fault.reset ();
  configure ();
  Fun.protect ~finally:Chaos.disarm f

let basic_tests =
  [
    Alcotest.test_case "disarmed: pure pass-through" `Quick (fun () ->
        Harness.Fault.reset ();
        Chaos.configure ~fail_prob:1.0 ~seed:1 ();
        Alcotest.(check bool) "armed" true (Chaos.armed ());
        Chaos.disarm ();
        Alcotest.(check bool) "not armed" false (Chaos.armed ());
        let a = C.make 1 and b = C.make 2 in
        Alcotest.(check bool) "dcas works" true (C.dcas a b 1 2 10 20);
        Alcotest.(check int) "a" 10 (C.get a);
        Alcotest.(check bool) "casn works" true
          (C.casn [ C.Cass (a, 10, 11); C.Cass (b, 20, 21) ]);
        Alcotest.(check int) "no spurious failures" 0 (Chaos.spurious ());
        Alcotest.(check int) "no delays" 0 (Chaos.delays ());
        Alcotest.(check int) "no freezes" 0 (Chaos.freezes ()));
    Alcotest.test_case "configure: validation" `Quick (fun () ->
        List.iter
          (fun f -> (
             match f () with
             | _ -> Alcotest.fail "expected Invalid_argument"
             | exception Invalid_argument _ -> ()))
          [
            (fun () -> Chaos.configure ~fail_prob:(-0.1) ~seed:1 ());
            (fun () -> Chaos.configure ~fail_prob:1.5 ~seed:1 ());
            (fun () -> Chaos.configure ~delay_prob:2.0 ~seed:1 ());
            (fun () -> Chaos.configure ~freeze_prob:(-1.0) ~seed:1 ());
            (fun () -> Chaos.configure ~delay_prob:0.5 ~max_delay:0 ~seed:1 ());
            (fun () ->
              Chaos.configure ~freeze_prob:0.5 ~freeze_spins:0 ~seed:1 ());
          ]);
    Alcotest.test_case "certain spurious failure leaves memory untouched"
      `Quick (fun () ->
        with_config (fun () -> Chaos.configure ~fail_prob:1.0 ~seed:7 ())
          (fun () ->
            C.reset_stats ();
            let a = C.make 1 and b = C.make 2 in
            for _ = 1 to 50 do
              Alcotest.(check bool) "dcas always fails" false
                (C.dcas a b 1 2 10 20);
              Alcotest.(check bool) "casn always fails" false
                (C.casn [ C.Cass (a, 1, 10); C.Cass (b, 2, 20) ])
            done;
            Alcotest.(check int) "a untouched" 1 (C.get a);
            Alcotest.(check int) "b untouched" 2 (C.get b);
            Alcotest.(check int) "every failure accounted" 100
              (Chaos.spurious ());
            Alcotest.(check int) "the substrate never saw an attempt" 0
              (C.stats ()).dcas_attempts);
        (* disarmed again: the very same dcas now succeeds *)
        let a = C.make 1 and b = C.make 2 in
        Alcotest.(check bool) "recovers after disarm" true
          (C.dcas a b 1 2 10 20));
    Alcotest.test_case "dcas_strong is exempt from spurious failures" `Quick
      (fun () ->
        with_config (fun () -> Chaos.configure ~fail_prob:1.0 ~seed:7 ())
          (fun () ->
            let a = C.make 1 and b = C.make 2 in
            Alcotest.(check bool) "succeeds despite fail_prob=1" true
              (C.dcas_strong a b 1 2 10 20 = Swapped);
            (* a genuine failure still returns the differing view *)
            match C.dcas_strong a b 99 99 0 0 with
            | Saw (v1, v2) ->
                Alcotest.(check int) "true view of a" 10 v1;
                Alcotest.(check int) "true view of b" 20 v2
            | Swapped -> Alcotest.fail "real mismatch succeeded"));
    Alcotest.test_case "set_private never faulted" `Quick (fun () ->
        with_config
          (fun () ->
            Chaos.configure ~delay_prob:1.0 ~freeze_prob:1.0 ~seed:3 ())
          (fun () ->
            let a = C.make 0 in
            C.set_private a 5;
            Alcotest.(check int) "no stalls on private init" 0
              (Chaos.delays () + Chaos.freezes ())));
    Alcotest.test_case "delays and freezes are counted" `Quick (fun () ->
        with_config
          (fun () ->
            Chaos.configure ~delay_prob:1.0 ~max_delay:4 ~freeze_prob:1.0
              ~freeze_spins:8 ~seed:11 ())
          (fun () ->
            let a = C.make 0 in
            for i = 1 to 20 do
              C.set a i
            done;
            ignore (C.get a);
            Alcotest.(check int) "every op delayed" 21 (Chaos.delays ());
            Alcotest.(check int) "every op frozen" 21 (Chaos.freezes ())));
    Alcotest.test_case "same seed, same fault sequence" `Quick (fun () ->
        let record () =
          with_config
            (fun () -> Chaos.configure ~fail_prob:0.5 ~seed:0xFEED ())
            (fun () ->
              let a = C.make 0 and b = C.make 0 in
              List.init 64 (fun i ->
                  (* keep expected values current so only chaos fails *)
                  let va = C.get a and vb = C.get b in
                  let ok = C.dcas a b va vb (va + i) (vb + i) in
                  ok))
        in
        let first = record () and second = record () in
        Alcotest.(check (list bool)) "identical verdicts" first second;
        Alcotest.(check bool) "both fault kinds occurred" true
          (List.mem true first && List.mem false first);
        (* a different seed must eventually disagree *)
        let other =
          with_config
            (fun () -> Chaos.configure ~fail_prob:0.5 ~seed:0xBEEF ())
            (fun () ->
              let a = C.make 0 and b = C.make 0 in
              List.init 64 (fun i ->
                  let va = C.get a and vb = C.get b in
                  C.dcas a b va vb (va + i) (vb + i)))
        in
        Alcotest.(check bool) "different seed diverges" true (first <> other));
  ]

(* The check order inside the one functor: chaos draws after the
   death check.  A victim with a mid-CASN kill pending whose DCAS chaos
   fails spuriously never publishes a descriptor, so its death falls
   back to the operation boundary and orphans nothing. *)
module Over_lockfree = Harness.Fault.Mem (Dcas.Mem_lockfree)

let order_tests =
  [
    Alcotest.test_case "spurious failure pre-empts a mid-CASN death" `Quick
      (fun () ->
        with_config (fun () -> Chaos.configure ~fail_prob:1.0 ~seed:13 ())
          (fun () ->
            let a = Over_lockfree.make 1 and b = Over_lockfree.make 2 in
            Harness.Crash.kill ~mode:`Mid_casn ~tid:0 ();
            let died =
              Domain.join
                (Domain.spawn (fun () ->
                     Harness.Fault.enroll ~tid:0;
                     match Over_lockfree.dcas a b 1 2 10 20 with
                     | _ -> false
                     | exception Harness.Crash.Died -> true))
            in
            Alcotest.(check bool) "the victim died" true died;
            Alcotest.(check int) "its dcas failed spuriously" 1
              (Chaos.spurious ());
            Alcotest.(check int) "one kill" 1 (Harness.Crash.kills ());
            Alcotest.(check int) "not mid-CASN: at the boundary" 0
              (Harness.Crash.mid_casn_kills ());
            Alcotest.(check int) "no orphan" 0 (Dcas.Mem_lockfree.orphans ());
            Harness.Fault.reset ();
            Alcotest.(check int) "a untouched" 1 (Over_lockfree.get a);
            Alcotest.(check int) "b untouched" 2 (Over_lockfree.get b)));
  ]

(* The paper's adversary, executed: a correct lock-free deque keeps
   every invariant and conserves values under heavy injected faults on
   real domains.  Slow tier. *)
module Deque_under_chaos = Deque.List_deque.Make (Over_lockfree)

let chaos_impl : Test_support.impl =
  {
    impl_name = "list-deque/lockfree under chaos";
    bounded = false;
    fresh =
      (fun ~capacity:_ ->
        let d = Deque_under_chaos.make () in
        Test_support.handle_of_ops
          ~push_right:(fun v -> Deque_under_chaos.push_right d v)
          ~push_left:(fun v -> Deque_under_chaos.push_left d v)
          ~pop_right:(fun () -> Deque_under_chaos.pop_right d)
          ~pop_left:(fun () -> Deque_under_chaos.pop_left d)
          ~to_list:(Some (fun () -> Deque_under_chaos.unsafe_to_list d))
          ~invariant:(Some (fun () -> Deque_under_chaos.check_invariant d)));
  }

let stress_tests =
  [
    Test_support.tiered "conservation under injected faults" `Slow (fun () ->
        with_config
          (fun () ->
            Chaos.configure ~fail_prob:0.2 ~delay_prob:0.05 ~max_delay:32
              ~freeze_prob:0.002 ~freeze_spins:2_000 ~seed:0xC0DE ())
          (fun () ->
            Test_support.stress_conservation ~seed:0xC0DE chaos_impl
              ~threads:4 ~iters:4_000 ~capacity:64 ();
            Alcotest.(check bool) "faults were actually injected" true
              (Chaos.spurious () > 0)));
  ]

let () =
  Alcotest.run "chaos"
    [
      ("substrate", basic_tests);
      ("check order", order_tests);
      ("stress", stress_tests);
    ]
