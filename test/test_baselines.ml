(* Tests for the baseline implementations: the sequential ring, the
   lock-based deques, the ABP work-stealing deque, Greenwald v1
   (correct but end-serializing), and the Greenwald v2 reconstruction —
   including the deterministic schedule on which v2 misreports "full"
   with a single element present (experiment E6). *)

let ring_tests =
  [
    Alcotest.test_case "ring: fifo + lifo" `Quick (fun () ->
        let r = Baselines.Ring.create ~capacity:4 () in
        Alcotest.(check bool) "empty" true (Baselines.Ring.pop_left r = `Empty);
        ignore (Baselines.Ring.push_right r 1);
        ignore (Baselines.Ring.push_right r 2);
        ignore (Baselines.Ring.push_left r 0);
        Alcotest.(check (list int)) "contents" [ 0; 1; 2 ]
          (Baselines.Ring.to_list r);
        Alcotest.(check bool) "push to full" true
          (Baselines.Ring.push_left r 9 = `Okay);
        Alcotest.(check bool) "full" true (Baselines.Ring.push_right r 9 = `Full);
        Alcotest.(check bool) "pop r" true (Baselines.Ring.pop_right r = `Value 2);
        Alcotest.(check bool) "pop l" true (Baselines.Ring.pop_left r = `Value 9);
        Alcotest.(check int) "length" 2 (Baselines.Ring.length r));
    Alcotest.test_case "ring: capacity validation" `Quick (fun () ->
        Alcotest.check_raises "zero"
          (Invalid_argument "Ring.create: capacity must be >= 1") (fun () ->
            ignore (Baselines.Ring.create ~capacity:0 ())));
  ]

let lock_impls : Test_support.impl list =
  [
    Test_support.of_module (module Baselines.Lock_deque) ~bounded:true;
    Test_support.of_module (module Baselines.Spin_deque) ~bounded:true;
  ]

let lock_qcheck =
  List.map
    (fun impl ->
      QCheck_alcotest.to_alcotest (Test_support.qcheck_sequential impl))
    lock_impls

(* --- ABP deque --- *)

let abp_tests =
  let module A = Baselines.Abp_deque in
  [
    Alcotest.test_case "abp: owner lifo" `Quick (fun () ->
        let d = A.create ~capacity:16 () in
        Alcotest.(check bool) "empty" true (A.pop_bottom d = `Empty);
        ignore (A.push_bottom d 1);
        ignore (A.push_bottom d 2);
        ignore (A.push_bottom d 3);
        Alcotest.(check bool) "pop 3" true (A.pop_bottom d = `Value 3);
        Alcotest.(check bool) "pop 2" true (A.pop_bottom d = `Value 2);
        Alcotest.(check bool) "pop 1" true (A.pop_bottom d = `Value 1);
        Alcotest.(check bool) "empty" true (A.pop_bottom d = `Empty));
    Alcotest.test_case "abp: steal fifo" `Quick (fun () ->
        let d = A.create ~capacity:16 () in
        ignore (A.push_bottom d 1);
        ignore (A.push_bottom d 2);
        ignore (A.push_bottom d 3);
        Alcotest.(check bool) "steal 1" true (A.steal_retry d = `Value 1);
        Alcotest.(check bool) "steal 2" true (A.steal_retry d = `Value 2);
        Alcotest.(check bool) "pop 3" true (A.pop_bottom d = `Value 3);
        Alcotest.(check bool) "steal empty" true (A.steal_retry d = `Empty));
    Alcotest.test_case "abp: capacity" `Quick (fun () ->
        let d = A.create ~capacity:2 () in
        ignore (A.push_bottom d 1);
        ignore (A.push_bottom d 2);
        Alcotest.(check bool) "full" true (A.push_bottom d 3 = `Full));
    Alcotest.test_case "abp: owner vs thieves race on last element" `Slow
      (fun () ->
        (* repeatedly race one owner pop against two thieves for a
           single element: exactly one of the three gets it *)
        for _round = 1 to 2000 do
          let d = A.create ~capacity:4 () in
          ignore (A.push_bottom d 42);
          let winners = Atomic.make 0 in
          let thief () =
            match A.steal_retry d with
            | `Value v ->
                Alcotest.(check int) "stolen value" 42 v;
                Atomic.incr winners
            | `Empty -> ()
          in
          let t1 = Domain.spawn thief and t2 = Domain.spawn thief in
          (match A.pop_bottom d with
          | `Value v ->
              Alcotest.(check int) "popped value" 42 v;
              Atomic.incr winners
          | `Empty -> ());
          Domain.join t1;
          Domain.join t2;
          Alcotest.(check int) "exactly one winner" 1 (Atomic.get winners)
        done);
  ]

(* --- Greenwald v1: correct, but serializes the two ends --- *)

(* Greenwald's deques have contents to compare but no executable
   invariant. *)
let greenwald (module G : Baselines.Greenwald_v1.ALGORITHM) : Test_support.impl
    =
  let module W = Deque.Deque_intf.Wrap (G) in
  {
    impl_name = G.name;
    bounded = true;
    fresh =
      (fun ~capacity ->
        let d = G.create ~capacity () in
        { (W.handle d) with contents = Some (fun () -> G.unsafe_to_list d) });
  }

let g1_impl = greenwald (module Baselines.Greenwald_v1.Sequential)

let g1_lockfree_impl = greenwald (module Baselines.Greenwald_v1.Lockfree)

let greenwald_v1_tests =
  [
    QCheck_alcotest.to_alcotest (Test_support.qcheck_sequential g1_impl);
    QCheck_alcotest.to_alcotest
      (Test_support.qcheck_sequential ~count:100 g1_lockfree_impl);
    Alcotest.test_case "greenwald v1: index range restriction" `Quick (fun () ->
        match Baselines.Greenwald_v1.Sequential.make ~length:(1 lsl 21) () with
        | _ -> Alcotest.fail "expected rejection of out-of-range length"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "greenwald v1: concurrent conservation" `Slow (fun () ->
        Test_support.stress_conservation g1_lockfree_impl ~threads:4
          ~iters:5_000 ~capacity:32 ());
  ]

(* --- Greenwald v2 reconstruction: the E6 failure --- *)

(* The documented flaw needs an interleaving: a pusher reads its index,
   another thread drains the deque from the opposite side and pushes a
   value into the cell the stale index points at, and the pusher then
   concludes "full" from the occupied cell without the confirming DCAS
   of Figure 3 lines 6-10 — while the deque holds a single element.
   The model checker finds such a schedule exhaustively; the same
   scenario run over the paper's algorithm is clean (its confirmation
   DCAS fails and the push retries). *)
let test_greenwald_v2_modelcheck () =
  let threads =
    [ [ Spec.Op.Push_right 9 ]; [ Spec.Op.Pop_left; Spec.Op.Push_right 8 ] ]
  in
  let flawed =
    Modelcheck.Scenario.greenwald_v2 ~name:"gw2-flaw" ~length:2 ~prefill:[ 7 ]
      threads
  in
  (match (Modelcheck.Explorer.explore flawed).Modelcheck.Explorer.error with
  | Some f ->
      Alcotest.(check string)
        "non-linearizable schedule found" "history is not linearizable"
        f.Modelcheck.Explorer.reason
  | None ->
      Alcotest.fail
        "expected the explorer to find Greenwald v2's false-full schedule");
  let sound =
    Modelcheck.Scenario.array_deque ~name:"paper-same-scenario" ~length:2
      ~prefill:[ 7 ] threads
  in
  match (Modelcheck.Explorer.explore sound).Modelcheck.Explorer.error with
  | None -> ()
  | Some f ->
      Alcotest.failf "paper's algorithm failed the same scenario: %s"
        f.Modelcheck.Explorer.reason

(* Sanity: on schedules without the race, v2 behaves like a deque. *)
let g2_impl = greenwald (module Baselines.Greenwald_v2.Sequential)

let greenwald_v2_tests =
  [
    Alcotest.test_case "model checker finds the flaw (E6)" `Slow
      test_greenwald_v2_modelcheck;
    QCheck_alcotest.to_alcotest
      (Test_support.qcheck_sequential ~count:100 g2_impl);
  ]

let () =
  Alcotest.run "baselines"
    [
      ("ring", ring_tests);
      ("lock deques", lock_qcheck);
      ("abp", abp_tests);
      ("greenwald v1", greenwald_v1_tests);
      ("greenwald v2", greenwald_v2_tests);
    ]
