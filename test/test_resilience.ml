(* Resilience: the robustness layers composed and pushed hard.

   Conservation leg (slow tier): all four deques run multi-domain under
   the full adversary at once — spurious DCAS/CASN failures, bounded
   chaos freezes AND cooperative mid-operation stalls injected through
   the per-op hook — and must still neither lose nor duplicate a value.

   Policy leg (fast tier): the Core.Policy wrapper's service-level
   contract — deadlines bound wall-clock time even under 20% injected
   DCAS failure, Reject/Retry/Spill degrade as documented, and the
   Spill chain conserves values across primary + overflow. *)

(* chaos + self-stall + freezer instrumentation under every deque *)
module Chaos = Harness.Chaos
module Mem = Harness.Fault.Mem (Dcas.Mem_lockfree)
module R_array = Deque.Array_deque.Make (Mem)
module R_list = Deque.List_deque.Make (Mem)
module R_dummy = Deque.List_deque_dummy.Make (Mem)
module R_casn = Deque.List_deque_casn.Make (Mem)

let impl_of name (module D : Deque.Deque_intf.CHECKED) ~bounded =
  { (Test_support.checked (module D) ~bounded) with impl_name = name }

module R_st = Baselines.St_deque.Make (Baselines.St_deque.Of_casn (Mem))

let array_impl = impl_of "array under chaos+stall" (module R_array) ~bounded:true
let list_impl = impl_of "list under chaos+stall" (module R_list) ~bounded:false
let dummy_impl = impl_of "dummy under chaos+stall" (module R_dummy) ~bounded:false
let st_impl = impl_of "st under chaos+stall" (module R_st) ~bounded:false
let casn_impl = impl_of "3cas under chaos+stall" (module R_casn) ~bounded:false

(* Each worker periodically arms a cooperative stall for itself — a
   short sleep in the middle of a later operation — layered on top of
   chaos's own spurious failures and bounded freezes,
   with a (generously thresholded) watchdog confirming the system
   never wedges. *)
let conservation_case impl =
  Test_support.tiered
    (impl.Test_support.impl_name ^ ": conservation")
    `Slow
    (fun () ->
      Harness.Fault.reset ();
      Chaos.configure ~fail_prob:0.2 ~delay_prob:0.02 ~max_delay:16
        ~freeze_prob:0.001 ~freeze_spins:1_000 ~seed:0xD15EA5E ();
      Fun.protect ~finally:Chaos.disarm (fun () ->
          let watchdog = Harness.Watchdog.create ~stall_after:30. ~threads:4 () in
          Test_support.stress_conservation ~seed:0xD15EA5E ~watchdog
            ~per_op:(fun ~tid ~i ->
              if i mod 400 = (17 * tid) mod 400 then
                Harness.Stall.request ~after_ops:3 ~duration:0.0005)
            impl ~threads:4 ~iters:3_000 ~capacity:64 ();
          Alcotest.(check bool) "spurious faults injected" true
            (Chaos.spurious () > 0);
          Alcotest.(check bool) "watchdog stayed quiet" false
            (Harness.Watchdog.fired watchdog)))

(* --- Policy: deadlines, degradation, conservation --- *)

(* The wrapper counts no outcomes, so retries are read from below: a
   deque that counts the calls the policy makes on it. *)
module Counting (D : Deque.Deque_intf.S) = struct
  type 'a t = { d : 'a D.t; calls : int Atomic.t }

  let name = "counting " ^ D.name
  let create ~capacity () = { d = D.create ~capacity (); calls = Atomic.make 0 }

  let counted f q =
    Atomic.incr q.calls;
    f q.d

  let push_right q v = counted (fun d -> D.push_right d v) q
  let push_left q v = counted (fun d -> D.push_left d v) q
  let pop_right q = counted D.pop_right q
  let pop_left q = counted D.pop_left q
  let calls q = Atomic.get q.calls
end

module P = Deque.Policy.Make (Deque.Array_deque.Lockfree)
module CA = Counting (Deque.Array_deque.Lockfree)
module PA = Deque.Policy.Make (CA)
module CR = Counting (R_array)
module PC = Deque.Policy.Make (CR)

let in_primary d =
  List.length (Deque.Array_deque.Lockfree.unsafe_to_list (P.primary d))

let in_overflow d = List.length (P.overflow_list d)

let fill_via_policy push n =
  for i = 1 to n do
    match push i with
    | `Okay -> ()
    | `Full | `Timeout -> Alcotest.failf "prefill push %d did not land" i
  done

let test_policy_reject () =
  let d = PA.create ~capacity:4 () in
  fill_via_policy (fun v -> PA.push_right d v) 4;
  Alcotest.(check bool) "full surfaces immediately" true
    (PA.push_right d 99 = `Full);
  Alcotest.(check bool) "other side full too" true (PA.push_left d 99 = `Full);
  Alcotest.(check int) "the four successes landed" 4
    (List.length (Deque.Array_deque.Lockfree.unsafe_to_list (PA.primary d).d));
  Alcotest.(check int) "no retries under Reject: one attempt per call" 6
    (CA.calls (PA.primary d))

let test_policy_retry_cap () =
  let d =
    PA.create ~full:(Deque.Policy.Retry { max_attempts = 3 }) ~capacity:2 ()
  in
  fill_via_policy (fun v -> PA.push_right d v) 2;
  let calls0 = CA.calls (PA.primary d) in
  Alcotest.(check bool) "still Full after bounded retries" true
    (PA.push_right d 99 = `Full);
  Alcotest.(check int) "three attempts: two extra burned" 3
    (CA.calls (PA.primary d) - calls0);
  Alcotest.check_raises "max_attempts validated"
    (Invalid_argument "Policy.create: max_attempts must be >= 1") (fun () ->
      ignore (PA.create ~full:(Deque.Policy.Retry { max_attempts = 0 })
                ~capacity:2 ()))

let test_policy_spill_conservation () =
  let d = P.create ~full:Deque.Policy.Spill ~capacity:4 () in
  for i = 1 to 10 do
    match P.push_right d i with
    | `Okay -> ()
    | `Full -> Alcotest.failf "spill push %d reported Full" i
    | `Timeout -> Alcotest.failf "spill push %d reported Timeout" i
  done;
  Alcotest.(check int) "primary at capacity" 4 (in_primary d);
  Alcotest.(check int) "overflow absorbed the excess" 6 (in_overflow d);
  (* primary + overflow hold exactly the pushed set *)
  let held =
    Deque.Array_deque.Lockfree.unsafe_to_list (P.primary d)
    @ P.overflow_list d
  in
  Alcotest.(check (list int)) "nothing lost, nothing duplicated"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.sort compare held);
  (* pops drain primary first, then the overflow, then report Empty *)
  let popped = ref [] in
  let rec drain () =
    match P.pop_right d with
    | `Value v ->
        popped := v :: !popped;
        drain ()
    | `Empty -> ()
    | `Timeout -> Alcotest.fail "no deadline given, Timeout impossible"
  in
  drain ();
  Alcotest.(check (list int)) "drained the full set"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.sort compare !popped);
  (* each parked value left the overflow exactly once — via the pop
     fallback or an opportunistic refill — so the drain above saw each
     value once and nothing stays behind *)
  Alcotest.(check int) "primary empty again" 0 (in_primary d);
  Alcotest.(check int) "overflow empty again" 0 (in_overflow d)

(* The drain-back path specifically: a pop that frees a slot must pull
   a parked value back into the primary, so the backlog shrinks under
   mixed traffic without the primary ever going empty. *)
let test_policy_spill_refill () =
  let d = P.create ~full:Deque.Policy.Spill ~capacity:2 () in
  fill_via_policy (fun v -> P.push_right d v) 4;
  Alcotest.(check int) "two values parked" 2 (in_overflow d);
  Alcotest.(check int) "no refill while the primary is full" 2 (in_primary d);
  let first =
    match P.pop_right d with
    | `Value v -> v
    | `Empty | `Timeout -> Alcotest.fail "pop of a full spill wrapper"
  in
  Alcotest.(check int) "the freed slot was refilled" 2 (in_primary d);
  Alcotest.(check int) "one fewer value parked" 1 (in_overflow d);
  let rec drain acc =
    match P.pop_right d with
    | `Value v -> drain (v :: acc)
    | `Empty -> acc
    | `Timeout -> Alcotest.fail "no deadline given, Timeout impossible"
  in
  let rest = drain [] in
  Alcotest.(check int) "all values conserved" 3 (List.length rest);
  Alcotest.(check (list int)) "parked values accounted exactly once"
    [ 1; 2; 3; 4 ]
    (List.sort compare (first :: rest));
  Alcotest.(check int) "overflow drained" 0 (in_overflow d)

let test_policy_no_deadline_is_immediate () =
  let d = PA.create ~capacity:4 () in
  Alcotest.(check bool) "empty pop returns at once" true
    (PA.pop_left d = `Empty);
  Alcotest.(check int) "one attempt, no retry" 1 (CA.calls (PA.primary d))

(* Acceptance bound: a deadline op must not overrun its budget by more
   than 50ms even with 20% spurious DCAS failure injected underneath. *)
let deadline_grace = 0.05

let test_policy_deadline_under_chaos () =
  Chaos.configure ~fail_prob:0.2 ~seed:0xDEAD11 ();
  Fun.protect ~finally:Chaos.disarm (fun () ->
      let d = PC.create ~capacity:2 () in
      fill_via_policy (fun v -> PC.push_right ?deadline:None d v) 2;
      let deadline = 0.08 in
      let calls0 = CR.calls (PC.primary d) in
      let t0 = Unix.gettimeofday () in
      let r = PC.push_right ~deadline d 99 in
      let elapsed = Unix.gettimeofday () -. t0 in
      let push_calls = CR.calls (PC.primary d) - calls0 in
      Alcotest.(check bool) "full push times out" true (r = `Timeout);
      Alcotest.(check bool)
        (Printf.sprintf "waited at least ~the budget (%.3fs)" elapsed)
        true
        (elapsed >= deadline *. 0.5);
      Alcotest.(check bool)
        (Printf.sprintf "overran by < 50ms (%.3fs)" elapsed)
        true
        (elapsed <= deadline +. deadline_grace);
      let t0 = Unix.gettimeofday () in
      let r = PC.pop_right ~deadline d in
      let elapsed = Unix.gettimeofday () -. t0 in
      (match r with
      | `Value _ -> ()
      | `Empty | `Timeout -> Alcotest.fail "pop of a full deque must succeed");
      Alcotest.(check bool) "successful op well under deadline" true
        (elapsed <= deadline +. deadline_grace);
      (* drain, then an empty pop must also respect its budget *)
      ignore (PC.pop_left ?deadline:None d);
      let calls0 = CR.calls (PC.primary d) in
      let t0 = Unix.gettimeofday () in
      let r = PC.pop_left ~deadline d in
      let elapsed = Unix.gettimeofday () -. t0 in
      let pop_calls = CR.calls (PC.primary d) - calls0 in
      Alcotest.(check bool) "empty pop times out" true (r = `Timeout);
      Alcotest.(check bool)
        (Printf.sprintf "pop overran by < 50ms (%.3fs)" elapsed)
        true
        (elapsed <= deadline +. deadline_grace);
      Alcotest.(check bool)
        (Printf.sprintf "deadline ops retried underneath (%d push, %d pop \
                         attempts)" push_calls pop_calls)
        true
        (push_calls > 1 && pop_calls > 1))

(* Spill under real contention: many domains push past capacity and pop
   concurrently; the primary + overflow chain must conserve values.
   [bounded = false]: with Spill armed, capacity never refuses. *)
let spill_impl : Test_support.impl =
  {
    impl_name = "array+spill policy";
    bounded = false;
    fresh =
      (fun ~capacity ->
        let d = P.create ~full:Deque.Policy.Spill ~capacity () in
        {
          name = P.name;
          push_right = (fun v -> P.push_simple d ~side:`Right v);
          push_left = (fun v -> P.push_simple d ~side:`Left v);
          pop_right = (fun () -> P.pop_simple d ~side:`Right);
          pop_left = (fun () -> P.pop_simple d ~side:`Left);
          contents =
            Some
              (fun () ->
                Deque.Array_deque.Lockfree.unsafe_to_list (P.primary d)
                @ P.overflow_list d);
          invariant = None;
        });
  }

let spill_stress =
  Test_support.tiered "spill policy: multi-domain conservation" `Slow
    (fun () ->
      Test_support.stress_conservation ~seed:0x5B111 spill_impl ~threads:4
        ~iters:4_000 ~capacity:8 ())

let () =
  Alcotest.run "resilience"
    [
      ( "conservation under chaos + stalls (E19)",
        [
          conservation_case array_impl;
          conservation_case list_impl;
          conservation_case dummy_impl;
          conservation_case casn_impl;
          conservation_case st_impl;
        ] );
      ( "degradation policies (E20)",
        [
          Alcotest.test_case "reject backpressure" `Quick test_policy_reject;
          Alcotest.test_case "bounded retry cap" `Quick test_policy_retry_cap;
          Alcotest.test_case "spill conserves values" `Quick
            test_policy_spill_conservation;
          Alcotest.test_case "spill drains back opportunistically" `Quick
            test_policy_spill_refill;
          Alcotest.test_case "no deadline, no waiting" `Quick
            test_policy_no_deadline_is_immediate;
          Alcotest.test_case "deadlines bound time under 20% chaos" `Quick
            test_policy_deadline_under_chaos;
          spill_stress;
        ] );
    ]
