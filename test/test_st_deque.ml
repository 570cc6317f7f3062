(* Tests for the Sundell–Tsigas single-word-CAS deque baseline: the
   two-phase delete (logical mark, then helped physical unlink), the
   prev-hint correction, and the planted no-helping variant that the
   PCT fuzzer must catch as a starvation (step-limit) violation.

   Sequential semantics run against the Section 2.2 oracle; the
   concurrent windows run exhaustively over the model memory via the
   one-entry-casn shim, so every shared read and CAS of the production
   algorithm text is a scheduling point. *)

open Spec.Op
module St = Baselines.St_deque

let st_impl = Test_support.checked (module St) ~bounded:false

let check_inv d =
  match St.check_invariant d with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariant: %s" e

(* --- Sequential semantics --- *)

(* The deque passes through its marked/unlinked configurations: a pop
   marks the node's next link and the same thread unlinks it, so every
   quiescent state must already be clean — subsequent operations from
   either end behave exactly like the oracle. *)
let test_sequential_mark_states () =
  let d = St.make () in
  check_inv d;
  Alcotest.(check bool) "popRight empty" true (St.pop_right d = `Empty);
  Alcotest.(check bool) "popLeft empty" true (St.pop_left d = `Empty);
  ignore (St.push_right d 1);
  Alcotest.(check bool) "pop only element from left" true
    (St.pop_left d = `Value 1);
  check_inv d;
  Alcotest.(check bool) "empty again" true (St.pop_right d = `Empty);
  ignore (St.push_left d 2);
  Alcotest.(check bool) "pop only element from right" true
    (St.pop_right d = `Value 2);
  check_inv d;
  (* two elements, one popped from each side *)
  ignore (St.push_right d 3);
  ignore (St.push_right d 4);
  Alcotest.(check bool) "pop right" true (St.pop_right d = `Value 4);
  Alcotest.(check bool) "pop left" true (St.pop_left d = `Value 3);
  check_inv d;
  Alcotest.(check bool) "empty after both" true (St.pop_left d = `Empty);
  (* pushes into the emptied deque from both ends *)
  Alcotest.(check bool) "push right" true (St.push_right d 5 = `Okay);
  Alcotest.(check bool) "push left" true (St.push_left d 6 = `Okay);
  check_inv d;
  Alcotest.(check (list int)) "contents" [ 6; 5 ] (St.unsafe_to_list d)

(* Mixed random single-threaded churn keeps the invariant. *)
let test_churn_invariant () =
  let d = St.make () in
  let rng = Dcas.Splitmix.create ~seed:11 in
  for i = 1 to 2000 do
    (match Dcas.Splitmix.int rng ~bound:4 with
    | 0 -> ignore (St.push_right d i)
    | 1 -> ignore (St.push_left d i)
    | 2 -> ignore (St.pop_right d)
    | _ -> ignore (St.pop_left d));
    if i mod 50 = 0 then check_inv d
  done;
  check_inv d

(* --- Systematic two-thread interleavings over the model memory ---

   The ST algorithm yields at every shared read and CAS, so only the
   smallest window (two opposite-end pushes into an empty deque,
   303,813 schedules) is exhaustible; the pop windows exceed two
   million schedules because the helping loops multiply the decision
   points.  The fast tier runs a bounded DFS prefix plus random
   sampling; the slow tier (DCAS_SLOW_TESTS=1, the CI configuration)
   exhausts the push window and runs a much deeper DFS on the rest. *)

let fail_of name = function
  | None -> ()
  | Some f -> Alcotest.failf "%s: %s" name f.Modelcheck.Explorer.reason

let explore_bounded name scenario =
  fail_of name
    (Modelcheck.Explorer.explore ~max_schedules:10_000 scenario)
      .Modelcheck.Explorer.error

let explore_full name scenario =
  let outcome = Modelcheck.Explorer.explore scenario in
  fail_of name outcome.Modelcheck.Explorer.error;
  Alcotest.(check bool)
    (name ^ " explored exhaustively")
    true outcome.Modelcheck.Explorer.exhaustive

let explore_deep name scenario =
  fail_of name
    (Modelcheck.Explorer.explore ~max_schedules:200_000 scenario)
      .Modelcheck.Explorer.error

let sample name scenario =
  match
    (Modelcheck.Fuzz.run ~shrink:false ~runs:2_000 ~seed:42
       ~strategy:Modelcheck.Fuzz.Uniform scenario)
      .Modelcheck.Fuzz.violation
  with
  | None -> ()
  | Some c -> Alcotest.failf "%s: %s" name c.failure.reason

let one_element_scenarios () =
  (* both pops race to mark the single node's next link; exactly one
     must win it and the loser must observe empty *)
  [
    ( "popL vs popR on one element",
      Modelcheck.Scenario.st_deque ~name:"st-1" ~prefill:[ 1 ]
        [ [ Pop_left ]; [ Pop_right ] ] );
    ( "two left pops on one element",
      Modelcheck.Scenario.st_deque ~name:"st-2" ~prefill:[ 1 ]
        [ [ Pop_left ]; [ Pop_left ] ] );
  ]

let push_pop_scenarios () =
  [
    ( "push into an emptying deque",
      Modelcheck.Scenario.st_deque ~name:"st-3" ~prefill:[ 1 ]
        [ [ Push_left 5 ]; [ Pop_right ] ] );
    ( "opposite-end pushes",
      Modelcheck.Scenario.st_deque ~name:"st-4" ~prefill:[]
        [ [ Push_left 5 ]; [ Push_right 6 ] ] );
    ( "pop chases two pushes",
      Modelcheck.Scenario.st_deque ~name:"st-5" ~prefill:[ 1 ]
        [ [ Push_right 5; Pop_right ]; [ Pop_left ] ] );
    (* a left pop marks the leftmost node while the right pusher's
       correct_prev walk is mid-flight over it *)
    ( "pop under a prev correction",
      Modelcheck.Scenario.st_deque ~name:"st-6" ~prefill:[ 1; 2 ]
        [ [ Pop_left; Pop_left ]; [ Push_right 7 ] ] );
  ]

let test_one_element_mark_race () =
  List.iter (fun (n, s) -> explore_bounded n s) (one_element_scenarios ())

let test_push_pop_races () =
  List.iter
    (fun (n, s) ->
      explore_bounded n s;
      sample n s)
    (push_pop_scenarios ())

(* Chaos-wrapped model memory: seeded spurious CAS failures drive the
   retry and helping paths through every explored schedule. *)
let test_chaos_interleavings () =
  let s =
    Modelcheck.Scenario.st_deque_chaos ~fail_prob:0.2 ~chaos_seed:5
      ~name:"st-chaos" ~prefill:[ 1 ]
      [ [ Pop_left ]; [ Pop_right ] ]
  in
  explore_bounded "one-element race under spurious failures" s;
  sample "one-element race under spurious failures" s

let test_exhaustive_slow_tier () =
  List.iter
    (fun (n, s) ->
      if n = "opposite-end pushes" then explore_full n s else explore_deep n s)
    (one_element_scenarios () @ push_pop_scenarios ())

(* --- The planted bug: helping never physically unlinks --- *)

(* Under a fair (uniform) schedule the marker's own trailing
   correct_prev splice hides the missing help_delete unlink, but a
   PCT priority schedule that starves the marker leaves the spinner
   unable to progress alone: the fuzzer must flag the run as a
   step-limit violation.  The correct deque must survive the very
   same budget. *)
let fuzz_budget scenario =
  Modelcheck.Fuzz.run ~max_steps:2000 ~shrink:false ~runs:500 ~seed:7
    ~strategy:(Modelcheck.Fuzz.Pct 3) scenario

let test_planted_bug_caught () =
  let report =
    fuzz_budget
      (Modelcheck.Scenario.st_deque_buggy ~name:"st-broken" ~prefill:[ 1; 2 ]
         [ [ Pop_left ]; [ Pop_left ] ])
  in
  match report.Modelcheck.Fuzz.violation with
  | None -> Alcotest.fail "pct missed the no-helping livelock in 500 runs"
  | Some c ->
      let reason = c.Modelcheck.Fuzz.failure.Modelcheck.Fuzz.reason in
      Alcotest.(check bool)
        (Printf.sprintf "starvation reported as step limit (got %S)" reason)
        true
        (let sub = "step limit" in
         let n = String.length sub in
         let rec scan i =
           i + n <= String.length reason
           && (String.sub reason i n = sub || scan (i + 1))
         in
         scan 0)

let test_correct_survives_same_budget () =
  let report =
    fuzz_budget
      (Modelcheck.Scenario.st_deque ~name:"st-clean" ~prefill:[ 1; 2 ]
         [ [ Pop_left ]; [ Pop_left ] ])
  in
  match report.Modelcheck.Fuzz.violation with
  | None ->
      Alcotest.(check int) "full budget executed" 500
        report.Modelcheck.Fuzz.executed
  | Some c ->
      Alcotest.failf "false positive: %s (token %s)"
        c.Modelcheck.Fuzz.failure.Modelcheck.Fuzz.reason
        c.Modelcheck.Fuzz.token

let test_uniform_fuzz_clean () =
  let report =
    Modelcheck.Fuzz.run ~max_steps:2000 ~runs:300 ~seed:13
      ~strategy:Modelcheck.Fuzz.Uniform
      (Modelcheck.Scenario.st_deque ~name:"st-u" ~prefill:[ 1; 2 ]
         [ [ Pop_right; Push_right 5 ]; [ Pop_left; Push_left 6 ] ])
  in
  match report.Modelcheck.Fuzz.violation with
  | None -> ()
  | Some c ->
      Alcotest.failf "false positive: %s"
        c.Modelcheck.Fuzz.failure.Modelcheck.Fuzz.reason

(* --- Real domains --- *)

(* Unique-value conservation under a 4-domain mixed workload, plus the
   quiescent invariant and contents partition afterwards. *)
let test_conservation_small () =
  Test_support.stress_conservation st_impl ~threads:4 ~iters:2_000
    ~capacity:64 ()

let test_linearizable_rounds () =
  Test_support.check_linearizable_rounds st_impl ~threads:3 ~ops_per_thread:5
    ~capacity:8 ~rounds:10

let () =
  Alcotest.run "st_deque"
    [
      ( "sequential semantics",
        [
          Alcotest.test_case "mark states" `Quick test_sequential_mark_states;
          Alcotest.test_case "random churn invariant" `Quick
            test_churn_invariant;
          QCheck_alcotest.to_alcotest
            (Test_support.qcheck_sequential st_impl);
        ] );
      ( "model interleavings",
        [
          Alcotest.test_case "one-element mark races" `Quick
            test_one_element_mark_race;
          Alcotest.test_case "push/pop races" `Quick test_push_pop_races;
          Alcotest.test_case "chaos interleavings" `Quick
            test_chaos_interleavings;
          Test_support.tiered "deep DFS over all windows" `Slow
            test_exhaustive_slow_tier;
        ] );
      ( "planted bug (no helping)",
        [
          Alcotest.test_case "pct catches the livelock" `Quick
            test_planted_bug_caught;
          Alcotest.test_case "correct deque survives the budget" `Quick
            test_correct_survives_same_budget;
          Alcotest.test_case "uniform fuzz clean" `Quick
            test_uniform_fuzz_clean;
        ] );
      ( "real domains",
        [
          Alcotest.test_case "conservation, 4 domains" `Quick
            test_conservation_small;
          Alcotest.test_case "linearizable histories" `Quick
            test_linearizable_rounds;
        ] );
    ]
