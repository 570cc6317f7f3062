(* The fault-injecting memory wrapper: disarmed it must be a pure
   pass-through; armed it must fail DCAS/CASN spuriously (and only
   those), stall deterministically from the configured seed, and
   account every injected fault in the stats.  The multi-domain case —
   a correct deque surviving heavy injected faults — is in the slow
   tier. *)

module C = Dcas.Mem_chaos.Make (Dcas.Mem_seq)

(* Each test arms its own configuration; start and end disarmed so the
   module-level state never leaks between tests. *)
let with_config configure f =
  configure ();
  Fun.protect ~finally:C.disarm f

let basic_tests =
  [
    Alcotest.test_case "disarmed: pure pass-through" `Quick (fun () ->
        C.disarm ();
        Alcotest.(check bool) "not armed" false (C.armed ());
        C.reset_stats ();
        let a = C.make 1 and b = C.make 2 in
        Alcotest.(check bool) "dcas works" true (C.dcas a b 1 2 10 20);
        Alcotest.(check int) "a" 10 (C.get a);
        Alcotest.(check bool) "casn works" true
          (C.casn [ C.Cass (a, 10, 11); C.Cass (b, 20, 21) ]);
        let s = C.stats () in
        Alcotest.(check int) "no spurious failures" 0 s.chaos_spurious;
        Alcotest.(check int) "no delays" 0 s.chaos_delays;
        Alcotest.(check int) "no freezes" 0 s.chaos_freezes);
    Alcotest.test_case "configure: validation" `Quick (fun () ->
        List.iter
          (fun f -> (
             match f () with
             | _ -> Alcotest.fail "expected Invalid_argument"
             | exception Invalid_argument _ -> ()))
          [
            (fun () -> C.configure ~fail_prob:(-0.1) ~seed:1 ());
            (fun () -> C.configure ~fail_prob:1.5 ~seed:1 ());
            (fun () -> C.configure ~delay_prob:2.0 ~seed:1 ());
            (fun () -> C.configure ~freeze_prob:(-1.0) ~seed:1 ());
            (fun () -> C.configure ~delay_prob:0.5 ~max_delay:0 ~seed:1 ());
            (fun () -> C.configure ~freeze_prob:0.5 ~freeze_spins:0 ~seed:1 ());
          ]);
    Alcotest.test_case "certain spurious failure leaves memory untouched"
      `Quick (fun () ->
        with_config (fun () -> C.configure ~fail_prob:1.0 ~seed:7 ()) (fun () ->
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
            let s = C.stats () in
            Alcotest.(check int) "every failure accounted" 100 s.chaos_spurious;
            Alcotest.(check bool) "attempts include spurious" true
              (s.dcas_attempts >= 100));
        (* disarmed again: the very same dcas now succeeds *)
        let a = C.make 1 and b = C.make 2 in
        Alcotest.(check bool) "recovers after disarm" true
          (C.dcas a b 1 2 10 20));
    Alcotest.test_case "dcas_strong is exempt from spurious failures" `Quick
      (fun () ->
        with_config (fun () -> C.configure ~fail_prob:1.0 ~seed:7 ()) (fun () ->
            let a = C.make 1 and b = C.make 2 in
            let ok, v1, v2 = C.dcas_strong a b 1 2 10 20 in
            Alcotest.(check bool) "succeeds despite fail_prob=1" true ok;
            Alcotest.(check int) "old a" 1 v1;
            Alcotest.(check int) "old b" 2 v2;
            (* a genuine failure still returns the differing view *)
            let ok, v1, _ = C.dcas_strong a b 99 99 0 0 in
            Alcotest.(check bool) "real mismatch still fails" false ok;
            Alcotest.(check int) "true view" 10 v1));
    Alcotest.test_case "set_private never faulted" `Quick (fun () ->
        with_config
          (fun () -> C.configure ~delay_prob:1.0 ~freeze_prob:1.0 ~seed:3 ())
          (fun () ->
            C.reset_stats ();
            let a = C.make 0 in
            C.set_private a 5;
            Alcotest.(check int) "no stalls on private init" 0
              ((C.stats ()).chaos_delays + (C.stats ()).chaos_freezes)));
    Alcotest.test_case "delays and freezes are counted" `Quick (fun () ->
        with_config
          (fun () ->
            C.configure ~delay_prob:1.0 ~max_delay:4 ~freeze_prob:1.0
              ~freeze_spins:8 ~seed:11 ())
          (fun () ->
            C.reset_stats ();
            let a = C.make 0 in
            for i = 1 to 20 do
              C.set a i
            done;
            ignore (C.get a);
            let s = C.stats () in
            Alcotest.(check int) "every op delayed" 21 s.chaos_delays;
            Alcotest.(check int) "every op frozen" 21 s.chaos_freezes));
    Alcotest.test_case "same seed, same fault sequence" `Quick (fun () ->
        let record () =
          with_config
            (fun () -> C.configure ~fail_prob:0.5 ~seed:0xFEED ())
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
            (fun () -> C.configure ~fail_prob:0.5 ~seed:0xBEEF ())
            (fun () ->
              let a = C.make 0 and b = C.make 0 in
              List.init 64 (fun i ->
                  let va = C.get a and vb = C.get b in
                  C.dcas a b va vb (va + i) (vb + i)))
        in
        Alcotest.(check bool) "different seed diverges" true (first <> other));
    Alcotest.test_case "stats pretty-printer shows chaos only when armed"
      `Quick (fun () ->
        C.reset_stats ();
        let clean =
          Format.asprintf "%a" Dcas.Memory_intf.pp_stats (C.stats ())
        in
        let contains ~needle hay =
          let n = String.length needle and h = String.length hay in
          let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "no chaos segment when zero" false
          (contains ~needle:"chaos" clean);
        with_config (fun () -> C.configure ~fail_prob:1.0 ~seed:2 ()) (fun () ->
            let a = C.make 1 and b = C.make 2 in
            ignore (C.dcas a b 1 2 3 4));
        let dirty =
          Format.asprintf "%a" Dcas.Memory_intf.pp_stats (C.stats ())
        in
        Alcotest.(check bool) "chaos segment appears" true
          (contains ~needle:"chaos=spurious:1" dirty));
  ]

(* Completeness of the stats pass-through: Mem_chaos merges its own
   counters into the wrapped substrate's snapshot with
   Memory_intf.add_stats, which is built on the exhaustive
   to_counts/of_counts conversions — so a field added to the record
   cannot silently vanish at the wrap seam.  Drive every counter of the
   lock-free substrate (including the dcas2/allocation ones) plus every
   chaos counter through one wrapped instance, and require the merged
   snapshot to be nonzero in *each* field and to zero out completely on
   reset. *)
module Chaos_over_lockfree = Dcas.Mem_chaos.Make (Dcas.Mem_lockfree)

let merge_completeness_tests =
  let module CW = Chaos_over_lockfree in
  [
    Alcotest.test_case "every stats field survives the chaos wrap" `Quick
      (fun () ->
        CW.disarm ();
        CW.reset_stats ();
        let a = CW.make 1 and b = CW.make 2 in
        (* reads/writes/value_allocs *)
        ignore (CW.get a);
        CW.set b 2;
        (* attempts/successes/descriptor_allocs/dcas2_hits, and a no-op
           confirm would elide — use a real write so value_allocs also
           moves on the slow path *)
        Alcotest.(check bool) "dcas succeeds" true (CW.dcas a b 1 2 10 20);
        (* fastfails *)
        ignore (CW.dcas a b 99 99 0 0);
        (* chaos_spurious / chaos_delays / chaos_freezes, with certain
           probabilities so the counts are deterministic *)
        Fun.protect ~finally:CW.disarm (fun () ->
            CW.configure ~fail_prob:1.0 ~delay_prob:1.0 ~max_delay:2
              ~freeze_prob:1.0 ~freeze_spins:2 ~seed:5 ();
            ignore (CW.dcas a b 10 20 11 21);
            ignore (CW.get a));
        (* helped_orphans: a crash-injected victim dies mid-CASN with a
           published descriptor and the surviving (main) domain helps
           it to completion *)
        let module CM = Harness.Fault.Mem (Dcas.Mem_lockfree) in
        Harness.Fault.reset ();
        let x = CM.make 0 and y = CM.make 0 in
        let warm = Atomic.make false in
        let victim =
          Domain.spawn (fun () ->
              Harness.Fault.enroll ~tid:0;
              try
                let i = ref 0 in
                while true do
                  ignore (CM.dcas x y (CM.get x) (CM.get y) !i (!i + 1));
                  Atomic.set warm true;
                  incr i
                done
              with Harness.Crash.Died -> ())
        in
        while not (Atomic.get warm) do
          Domain.cpu_relax ()
        done;
        Harness.Crash.kill ~mode:`Mid_casn ~tid:0 ();
        Domain.join victim;
        Alcotest.(check int)
          "victim left one orphan" 1
          (Dcas.Mem_lockfree.help_orphans ());
        Harness.Fault.reset ();
        let counts = Dcas.Memory_intf.to_counts (CW.stats ()) in
        let assoc = Dcas.Memory_intf.stats_to_assoc (CW.stats ()) in
        Array.iteri
          (fun i c ->
            Alcotest.(check bool)
              (Printf.sprintf "field %s nonzero after wrap+merge"
                 (fst (List.nth assoc i)))
              true (c > 0))
          counts;
        CW.reset_stats ();
        Alcotest.(check (array int))
          "reset zeroes every field"
          (Array.make Dcas.Memory_intf.stats_fields 0)
          (Dcas.Memory_intf.to_counts (CW.stats ())));
  ]

(* The paper's adversary, executed: a correct lock-free deque keeps
   every invariant and conserves values under heavy injected faults on
   real domains.  Slow tier. *)
module Chaos_lockfree = Dcas.Mem_chaos.Make (Dcas.Mem_lockfree)
module Deque_under_chaos = Deque.List_deque.Make (Chaos_lockfree)

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
        Chaos_lockfree.configure ~fail_prob:0.2 ~delay_prob:0.05 ~max_delay:32
          ~freeze_prob:0.002 ~freeze_spins:2_000 ~seed:0xC0DE ();
        Fun.protect ~finally:Chaos_lockfree.disarm (fun () ->
            Chaos_lockfree.reset_stats ();
            Test_support.stress_conservation ~seed:0xC0DE chaos_impl
              ~threads:4 ~iters:4_000 ~capacity:64 ();
            let s = Chaos_lockfree.stats () in
            Alcotest.(check bool) "faults were actually injected" true
              (s.chaos_spurious > 0)));
  ]

let () =
  Alcotest.run "chaos"
    [
      ("substrate", basic_tests);
      ("stats-merge", merge_completeness_tests);
      ("stress", stress_tests);
    ]
