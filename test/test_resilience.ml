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

let impl_of ~name ~bounded ~fresh : Test_support.impl =
  { Test_support.impl_name = name; bounded; fresh }

let array_impl =
  impl_of ~name:"array under chaos+stall" ~bounded:true ~fresh:(fun ~capacity ->
      let d = R_array.make ~length:capacity () in
      Test_support.handle_of_ops
        ~push_right:(fun v -> R_array.push_right d v)
        ~push_left:(fun v -> R_array.push_left d v)
        ~pop_right:(fun () -> R_array.pop_right d)
        ~pop_left:(fun () -> R_array.pop_left d)
        ~to_list:(Some (fun () -> R_array.unsafe_to_list d))
        ~invariant:(Some (fun () -> R_array.check_invariant d)))

let list_impl =
  impl_of ~name:"list under chaos+stall" ~bounded:false ~fresh:(fun ~capacity:_ ->
      let d = R_list.make () in
      Test_support.handle_of_ops
        ~push_right:(fun v -> R_list.push_right d v)
        ~push_left:(fun v -> R_list.push_left d v)
        ~pop_right:(fun () -> R_list.pop_right d)
        ~pop_left:(fun () -> R_list.pop_left d)
        ~to_list:(Some (fun () -> R_list.unsafe_to_list d))
        ~invariant:(Some (fun () -> R_list.check_invariant d)))

let dummy_impl =
  impl_of ~name:"dummy under chaos+stall" ~bounded:false
    ~fresh:(fun ~capacity:_ ->
      let d = R_dummy.make () in
      Test_support.handle_of_ops
        ~push_right:(fun v -> R_dummy.push_right d v)
        ~push_left:(fun v -> R_dummy.push_left d v)
        ~pop_right:(fun () -> R_dummy.pop_right d)
        ~pop_left:(fun () -> R_dummy.pop_left d)
        ~to_list:(Some (fun () -> R_dummy.unsafe_to_list d))
        ~invariant:(Some (fun () -> R_dummy.check_invariant d)))

module R_st = Baselines.St_deque.Make (Baselines.St_deque.Of_casn (Mem))

let st_impl =
  impl_of ~name:"st under chaos+stall" ~bounded:false
    ~fresh:(fun ~capacity:_ ->
      let d = R_st.make () in
      Test_support.handle_of_ops
        ~push_right:(fun v -> R_st.push_right d v)
        ~push_left:(fun v -> R_st.push_left d v)
        ~pop_right:(fun () -> R_st.pop_right d)
        ~pop_left:(fun () -> R_st.pop_left d)
        ~to_list:(Some (fun () -> R_st.unsafe_to_list d))
        ~invariant:(Some (fun () -> R_st.check_invariant d)))

let casn_impl =
  impl_of ~name:"3cas under chaos+stall" ~bounded:false
    ~fresh:(fun ~capacity:_ ->
      let d = R_casn.make () in
      Test_support.handle_of_ops
        ~push_right:(fun v -> R_casn.push_right d v)
        ~push_left:(fun v -> R_casn.push_left d v)
        ~pop_right:(fun () -> R_casn.pop_right d)
        ~pop_left:(fun () -> R_casn.pop_left d)
        ~to_list:(Some (fun () -> R_casn.unsafe_to_list d))
        ~invariant:(Some (fun () -> R_casn.check_invariant d)))

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

module P = Deque.Policy.Make (Deque.Array_deque.Lockfree)
module PC = Deque.Policy.Make (R_array)

let fill_via_policy push n =
  for i = 1 to n do
    match push i with
    | `Okay -> ()
    | `Full | `Timeout -> Alcotest.failf "prefill push %d did not land" i
  done

let test_policy_reject () =
  let d = P.create ~capacity:4 () in
  fill_via_policy (fun v -> P.push_right d v) 4;
  Alcotest.(check bool) "full surfaces immediately" true
    (P.push_right d 99 = `Full);
  Alcotest.(check bool) "other side full too" true (P.push_left d 99 = `Full);
  let s = P.stats d in
  Alcotest.(check int) "rejections counted" 2 s.Deque.Policy.full_rejections;
  Alcotest.(check int) "successes counted" 4 s.Deque.Policy.ok;
  Alcotest.(check int) "no retries under Reject" 0 s.Deque.Policy.retries

let test_policy_retry_cap () =
  let d = P.create ~full:(Deque.Policy.Retry { max_attempts = 3 }) ~capacity:2 () in
  fill_via_policy (fun v -> P.push_right d v) 2;
  Alcotest.(check bool) "still Full after bounded retries" true
    (P.push_right d 99 = `Full);
  let s = P.stats d in
  Alcotest.(check int) "two extra attempts burned" 2 s.Deque.Policy.retries;
  Alcotest.check_raises "max_attempts validated"
    (Invalid_argument "Policy.create: max_attempts must be >= 1") (fun () ->
      ignore (P.create ~full:(Deque.Policy.Retry { max_attempts = 0 })
                ~capacity:2 ()))

let test_policy_spill_conservation () =
  let d = P.create ~full:Deque.Policy.Spill ~capacity:4 () in
  for i = 1 to 10 do
    match P.push_right d i with
    | `Okay -> ()
    | `Full -> Alcotest.failf "spill push %d reported Full" i
    | `Timeout -> Alcotest.failf "spill push %d reported Timeout" i
  done;
  let s = P.stats d in
  Alcotest.(check int) "overflow absorbed the excess" 6 s.Deque.Policy.spilled;
  Alcotest.(check int) "overflow size visible" 6 s.Deque.Policy.overflow_size;
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
  let s = P.stats d in
  (* each parked value leaves the overflow exactly once — either via
     the pop fallback or via an opportunistic refill *)
  Alcotest.(check int) "every parked value left the overflow once" 6
    (s.Deque.Policy.spill_drained + s.Deque.Policy.refilled);
  Alcotest.(check int) "overflow empty again" 0 s.Deque.Policy.overflow_size

(* The drain-back path specifically: a pop that frees a slot must pull
   a parked value back into the primary, so the backlog shrinks under
   mixed traffic without the primary ever going empty. *)
let test_policy_spill_refill () =
  let d = P.create ~full:Deque.Policy.Spill ~capacity:2 () in
  fill_via_policy (fun v -> P.push_right d v) 4;
  let s = P.stats d in
  Alcotest.(check int) "two values parked" 2 s.Deque.Policy.spilled;
  Alcotest.(check int) "no refill while the primary is full" 0
    s.Deque.Policy.refilled;
  (match P.pop_right d with
  | `Value _ -> ()
  | `Empty | `Timeout -> Alcotest.fail "pop of a full spill wrapper");
  let s = P.stats d in
  Alcotest.(check int) "the freed slot was refilled" 1
    s.Deque.Policy.refilled;
  Alcotest.(check int) "one fewer value parked" 1
    s.Deque.Policy.overflow_size;
  let rec drain acc =
    match P.pop_right d with
    | `Value v -> drain (v :: acc)
    | `Empty -> acc
    | `Timeout -> Alcotest.fail "no deadline given, Timeout impossible"
  in
  let rest = drain [] in
  Alcotest.(check int) "all values conserved" 3 (List.length rest);
  let s = P.stats d in
  Alcotest.(check int) "parked values accounted exactly once" 2
    (s.Deque.Policy.spill_drained + s.Deque.Policy.refilled);
  Alcotest.(check int) "overflow drained" 0 s.Deque.Policy.overflow_size

let test_policy_no_deadline_is_immediate () =
  let d = P.create ~capacity:4 () in
  Alcotest.(check bool) "empty pop returns at once" true
    (P.pop_left d = `Empty);
  let s = P.stats d in
  Alcotest.(check int) "miss counted" 1 s.Deque.Policy.empty_misses

(* Acceptance bound: a deadline op must not overrun its budget by more
   than 50ms even with 20% spurious DCAS failure injected underneath. *)
let deadline_grace = 0.05

let test_policy_deadline_under_chaos () =
  Chaos.configure ~fail_prob:0.2 ~seed:0xDEAD11 ();
  Fun.protect ~finally:Chaos.disarm (fun () ->
      let d = PC.create ~capacity:2 () in
      fill_via_policy (fun v -> PC.push_right ?deadline:None d v) 2;
      let deadline = 0.08 in
      let t0 = Unix.gettimeofday () in
      let r = PC.push_right ~deadline d 99 in
      let elapsed = Unix.gettimeofday () -. t0 in
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
      let t0 = Unix.gettimeofday () in
      let r = PC.pop_left ~deadline d in
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "empty pop times out" true (r = `Timeout);
      Alcotest.(check bool)
        (Printf.sprintf "pop overran by < 50ms (%.3fs)" elapsed)
        true
        (elapsed <= deadline +. deadline_grace);
      let s = PC.stats d in
      Alcotest.(check int) "timeouts counted" 2 s.Deque.Policy.timeouts;
      Alcotest.(check bool) "deadline ops retried underneath" true
        (s.Deque.Policy.retries > 0))

(* Spill under real contention: many domains push past capacity and pop
   concurrently; the primary + overflow chain must conserve values.
   [bounded = false]: with Spill armed, capacity never refuses. *)
let spill_impl =
  impl_of ~name:"array+spill policy" ~bounded:false ~fresh:(fun ~capacity ->
      let d = P.create ~full:Deque.Policy.Spill ~capacity () in
      Test_support.handle_of_ops
        ~push_right:(fun v -> P.push_simple d ~side:`Right v)
        ~push_left:(fun v -> P.push_simple d ~side:`Left v)
        ~pop_right:(fun () -> P.pop_simple d ~side:`Right)
        ~pop_left:(fun () -> P.pop_simple d ~side:`Left)
        ~to_list:
          (Some
             (fun () ->
               Deque.Array_deque.Lockfree.unsafe_to_list (P.primary d)
               @ P.overflow_list d))
        ~invariant:None)

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
