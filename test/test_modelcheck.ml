(* Exhaustive bounded model checking of the paper's algorithms — the
   executable face of Section 5's theorems (experiments E2, E3, E13).

   Every scenario here is explored over ALL interleavings (up to the
   stated bound): after every shared-memory step the representation
   invariant must hold, and every complete history must be
   linearizable.  The scenarios are the paper's own figures: the
   contending pops of Figures 5-6, the empty-state family of Figure 9,
   and the contending physical deletions of Figure 16. *)

open Spec.Op

let assert_ok name outcome =
  match outcome.Modelcheck.Explorer.error with
  | None ->
      Alcotest.(check bool)
        (Printf.sprintf "%s explored exhaustively" name)
        true outcome.Modelcheck.Explorer.exhaustive
  | Some f ->
      Alcotest.failf "%s: %s@.schedule: %s@.%s" name
        f.Modelcheck.Explorer.reason
        (String.concat " " (List.map string_of_int f.Modelcheck.Explorer.schedule))
        f.Modelcheck.Explorer.pretty_history

let explore = Modelcheck.Explorer.explore

(* --- E2: the array deque's contended boundaries --- *)

let test_fig6_pop_vs_pop () =
  (* both pops race for the single element: exactly one wins *)
  assert_ok "array pop/pop on 1 element"
    (explore
       (Modelcheck.Scenario.array_deque ~name:"fig6" ~length:4 ~prefill:[ 42 ]
          [ [ Pop_right ]; [ Pop_left ] ]))

let test_fig6_no_hints () =
  assert_ok "array pop/pop, hints disabled"
    (explore
       (Modelcheck.Scenario.array_deque ~hints:false ~name:"fig6-nh" ~length:4
          ~prefill:[ 42 ]
          [ [ Pop_right ]; [ Pop_left ] ]))

let test_push_vs_push_last_slot () =
  (* both pushes race for the last free slot of a full-1 deque *)
  assert_ok "array push/push on last slot"
    (explore
       (Modelcheck.Scenario.array_deque ~name:"last-slot" ~length:3
          ~prefill:[ 1; 2 ]
          [ [ Push_right 8 ]; [ Push_left 9 ] ]))

let test_push_vs_pop_empty_boundary () =
  assert_ok "array push vs pop near empty"
    (explore
       (Modelcheck.Scenario.array_deque ~name:"push-pop" ~length:3
          ~prefill:[ 5 ]
          [ [ Pop_left; Pop_right ]; [ Push_right 6 ] ]))

let test_three_threads_array () =
  assert_ok "array 3 threads"
    (explore
       (Modelcheck.Scenario.array_deque ~name:"3t" ~length:3 ~prefill:[ 1 ]
          [ [ Pop_right ]; [ Pop_left ]; [ Push_right 9 ] ]))

let test_wrap_boundary () =
  (* index wraparound under contention: prefill rotated to the array's
     physical edge via setup pops/pushes *)
  assert_ok "array contention across the wrap point"
    (explore
       (Modelcheck.Scenario.array_deque ~name:"wrap" ~length:3
          ~prefill:[ 1; 2; 3 ]
          ~setup:[ Pop_left; Pop_left; Push_right 4 ]
          [ [ Pop_right ]; [ Pop_left ]; [ Push_left 5 ] ]))

(* --- E3: the list deque's empty-state family and deletions --- *)

let test_fig6_list () =
  assert_ok "list pop/pop on 1 element"
    (explore
       (Modelcheck.Scenario.list_deque ~name:"fig6l" ~prefill:[ 42 ]
          [ [ Pop_right ]; [ Pop_left ] ]))

let test_fig9_right_deleted () =
  (* one pending right deletion; pop and push contend over completing
     it *)
  assert_ok "list ops over a right-deleted cell"
    (explore
       (Modelcheck.Scenario.list_deque ~name:"fig9r" ~prefill:[ 1 ]
          ~setup:[ Pop_right ]
          [ [ Push_right 2 ]; [ Pop_right ] ]))

let test_fig9_left_deleted () =
  assert_ok "list ops over a left-deleted cell"
    (explore
       (Modelcheck.Scenario.list_deque ~name:"fig9l" ~prefill:[ 1 ]
          ~setup:[ Pop_left ]
          [ [ Push_left 2 ]; [ Pop_left ] ]))

let test_fig16_contending_deletes () =
  (* both ends logically deleted; the two pushes must complete the
     contending physical deletions of Figure 16 *)
  assert_ok "figure 16: contending deletes"
    (explore
       (Modelcheck.Scenario.list_deque ~name:"fig16" ~prefill:[ 1; 2 ]
          ~setup:[ Pop_right; Pop_left ]
          [ [ Push_right 3 ]; [ Push_left 4 ] ]))

let test_fig16_deletes_vs_pops () =
  assert_ok "figure 16: deletes raced by pops"
    (explore
       (Modelcheck.Scenario.list_deque ~name:"fig16p" ~prefill:[ 1; 2 ]
          ~setup:[ Pop_right; Pop_left ]
          [ [ Pop_right ]; [ Pop_left ] ]))

let test_list_push_push_empty () =
  assert_ok "list push/push on empty"
    (explore
       (Modelcheck.Scenario.list_deque ~name:"pp" ~prefill:[]
          [ [ Push_right 1 ]; [ Push_left 2 ] ]))

let test_list_pop_pop_two () =
  assert_ok "list pop/pop on 2 elements"
    (explore
       (Modelcheck.Scenario.list_deque ~name:"pp2" ~prefill:[ 1; 2 ]
          [ [ Pop_right ]; [ Pop_left ] ]))

(* --- E11: the dummy-node variant passes the same checks --- *)

let test_dummy_fig6 () =
  assert_ok "dummy pop/pop on 1 element"
    (explore
       (Modelcheck.Scenario.list_deque_dummy ~name:"dfig6" ~prefill:[ 42 ]
          [ [ Pop_right ]; [ Pop_left ] ]))

let test_dummy_fig16 () =
  assert_ok "dummy figure 16"
    (explore
       (Modelcheck.Scenario.list_deque_dummy ~name:"dfig16" ~prefill:[ 1; 2 ]
          ~setup:[ Pop_right; Pop_left ]
          [ [ Push_right 3 ]; [ Push_left 4 ] ]))

(* --- Greenwald v1 is correct (its flaw is concurrency loss, not
   incorrectness) --- *)

let test_greenwald_v1_fig6 () =
  assert_ok "greenwald v1 pop/pop"
    (explore
       (Modelcheck.Scenario.greenwald_v1 ~name:"g1" ~length:4 ~prefill:[ 42 ]
          [ [ Pop_right ]; [ Pop_left ] ]))

(* --- Randomized sampling for configurations too big to enumerate --- *)

(* The first violation among [runs] uniformly random schedules. *)
let uniform ~runs ~seed scenario =
  (Modelcheck.Fuzz.run ~shrink:false ~runs ~seed
     ~strategy:Modelcheck.Fuzz.Uniform scenario)
    .Modelcheck.Fuzz.violation

let test_sampled_array () =
  let s =
    Modelcheck.Scenario.array_deque ~name:"sampled-array" ~length:3
      ~prefill:[ 1 ]
      [
        [ Push_right 2; Pop_left; Pop_right ];
        [ Pop_right; Push_left 3 ];
        [ Push_left 4; Pop_left ];
      ]
  in
  match uniform ~runs:3_000 ~seed:42 s with
  | None -> ()
  | Some c -> Alcotest.failf "sampled array: %s" c.failure.reason

let test_sampled_list () =
  let s =
    Modelcheck.Scenario.list_deque ~name:"sampled-list" ~prefill:[ 1; 2 ]
      [
        [ Pop_right; Push_right 3; Pop_right ];
        [ Pop_left; Push_left 4 ];
        [ Pop_right; Pop_left ];
      ]
  in
  match uniform ~runs:2_000 ~seed:43 s with
  | None -> ()
  | Some c -> Alcotest.failf "sampled list: %s" c.failure.reason

(* --- Scenario fuzzing: randomly generated small scenarios, random
   schedules, across every algorithm --- *)

let ops_arb =
  let open QCheck2.Gen in
  let op =
    frequency
      [
        (2, map (fun v -> Push_right v) (int_bound 3));
        (2, map (fun v -> Push_left v) (int_bound 3));
        (3, return Pop_right);
        (3, return Pop_left);
      ]
  in
  let thread = list_size (1 -- 2) op in
  pair (list_size (0 -- 3) (int_bound 3)) (list_size (2 -- 3) thread)

let print_fuzz (prefill, threads) =
  Printf.sprintf "prefill=[%s] threads=[%s]"
    (String.concat ";" (List.map string_of_int prefill))
    (String.concat " | "
       (List.map
          (fun ops ->
            String.concat ","
              (List.map
                 (fun op ->
                   Format.asprintf "%a" (Spec.Op.pp_op Format.pp_print_int) op)
                 ops))
          threads))

let fuzz_test name mk =
  QCheck2.Test.make ~name ~count:30 ~print:print_fuzz ops_arb
    (fun (prefill, threads) ->
      match uniform ~runs:120 ~seed:7 (mk ~prefill threads) with
      | None -> true
      | Some c -> QCheck2.Test.fail_report c.failure.reason)

let fuzz_tests =
  [
    QCheck_alcotest.to_alcotest
      (fuzz_test "fuzz: array scenarios" (fun ~prefill threads ->
           Modelcheck.Scenario.array_deque ~name:"fz-a" ~length:3 ~prefill
             threads));
    QCheck_alcotest.to_alcotest
      (fuzz_test "fuzz: list scenarios" (fun ~prefill threads ->
           Modelcheck.Scenario.list_deque ~name:"fz-l" ~prefill threads));
    QCheck_alcotest.to_alcotest
      (fuzz_test "fuzz: list scenarios (recycle)" (fun ~prefill threads ->
           Modelcheck.Scenario.list_deque ~recycle:true ~name:"fz-r" ~prefill
             threads));
    QCheck_alcotest.to_alcotest
      (fuzz_test "fuzz: dummy scenarios" (fun ~prefill threads ->
           Modelcheck.Scenario.list_deque_dummy ~name:"fz-d" ~prefill threads));
    QCheck_alcotest.to_alcotest
      (fuzz_test "fuzz: 3cas scenarios" (fun ~prefill threads ->
           Modelcheck.Scenario.list_deque_casn ~name:"fz-c" ~prefill threads));
    QCheck_alcotest.to_alcotest
      (fuzz_test "fuzz: greenwald v1 scenarios" (fun ~prefill threads ->
           Modelcheck.Scenario.greenwald_v1 ~name:"fz-g" ~length:5 ~prefill
             threads));
  ]

(* The explorer is deterministic: replaying the same decision function
   over the same scenario yields byte-identical histories.  (This is
   what makes stateless DFS enumeration sound.) *)
let test_replay_deterministic () =
  let scenario =
    Modelcheck.Scenario.list_deque ~name:"det" ~prefill:[ 1; 2 ]
      [ [ Pop_right; Push_right 3 ]; [ Pop_left ] ]
  in
  let decide depth enabled = (depth * 7) mod List.length enabled in
  let show (r : Modelcheck.Explorer.run_report) =
    Modelcheck.Explorer.pretty_history r.Modelcheck.Explorer.history
  in
  let a = Modelcheck.Explorer.run_schedule scenario ~decide in
  let b = Modelcheck.Explorer.run_schedule scenario ~decide in
  Alcotest.(check string) "identical histories" (show a) (show b);
  Alcotest.(check int) "identical step counts" a.Modelcheck.Explorer.steps
    b.Modelcheck.Explorer.steps

(* --- run_schedule edge cases --- *)

(* Frozen threads must never appear in an enabled set, never execute an
   operation, and must not stop the others from completing. *)
let test_frozen_never_scheduled () =
  let scenario =
    Modelcheck.Scenario.list_deque ~name:"frozen" ~prefill:[ 1; 2 ]
      [ [ Pop_right ]; [ Pop_left; Push_left 9 ] ]
  in
  let report =
    Modelcheck.Explorer.run_schedule scenario
      ~frozen:(fun i -> i = 1)
      ~decide:(fun _ enabled -> List.length enabled - 1)
  in
  List.iter
    (fun (enabled, _) ->
      if List.mem 1 enabled then
        Alcotest.fail "frozen thread appeared in an enabled set")
    report.Modelcheck.Explorer.decisions;
  Array.iter
    (fun e ->
      if e.Spec.History.thread = 1 then
        Alcotest.fail "frozen thread executed an operation")
    report.Modelcheck.Explorer.history;
  Alcotest.(check int) "only thread 0's op completed" 1
    (Array.length report.Modelcheck.Explorer.history)

(* Step_limit fires when the schedule *exceeds* max_steps: a budget of
   exactly the run's length completes, one less raises. *)
let test_step_limit_boundary () =
  let scenario =
    Modelcheck.Scenario.list_deque ~name:"steps" ~prefill:[ 1 ]
      [ [ Pop_right ]; [ Push_left 5 ] ]
  in
  let decide depth enabled = depth mod List.length enabled in
  let full = Modelcheck.Explorer.run_schedule scenario ~decide in
  let s = full.Modelcheck.Explorer.steps in
  let exact = Modelcheck.Explorer.run_schedule ~max_steps:s scenario ~decide in
  Alcotest.(check int) "budget = steps completes" s
    exact.Modelcheck.Explorer.steps;
  match Modelcheck.Explorer.run_schedule ~max_steps:(s - 1) scenario ~decide with
  | _ -> Alcotest.fail "expected Step_limit"
  | exception Modelcheck.Explorer.Step_limit -> ()

(* The Invariant_violation payload is the scenario's own message,
   verbatim — both from run_schedule and through explore's report. *)
let test_invariant_message () =
  let scenario : Modelcheck.Scenario.t =
    {
      name = "inv-msg";
      capacity = None;
      initial = [];
      threads = [| [ Pop_right ] |];
      instantiate =
        (fun () ->
          {
            Modelcheck.Scenario.apply = (fun _ -> Empty);
            invariant = Some (fun () -> Error "custom-message-42");
          });
    }
  in
  (match
     Modelcheck.Explorer.run_schedule scenario ~decide:(fun _ _ -> 0)
   with
  | _ -> Alcotest.fail "expected Invariant_violation"
  | exception Modelcheck.Explorer.Invariant_violation msg ->
      Alcotest.(check string) "verbatim payload" "custom-message-42" msg);
  match (Modelcheck.Explorer.explore scenario).error with
  | None -> Alcotest.fail "explore missed the violation"
  | Some f ->
      Alcotest.(check string)
        "explore's reason carries the message"
        "invariant violated: custom-message-42" f.Modelcheck.Explorer.reason

(* --- sharded service (E24) --- *)

(* The sharded front end is NOT linearizable to a single deque (routing
   and stealing reorder across shards by design), so these legs explore
   with [check:`None]: the per-step obligation is the scenario's own
   invariant (each shard's representation invariant plus no value
   resident twice service-wide), and exact conservation is delegated to
   check_crash's drain-and-balance accounting. *)

let assert_clean name (outcome : Modelcheck.Explorer.outcome) =
  match outcome.Modelcheck.Explorer.error with
  | None -> ()
  | Some f ->
      Alcotest.failf "%s: %s@.schedule: %s@.%s" name
        f.Modelcheck.Explorer.reason
        (String.concat " " (List.map string_of_int f.Modelcheck.Explorer.schedule))
        f.Modelcheck.Explorer.pretty_history

(* Two threads over two shards: exhaustively enumerable (~500
   schedules), every step invariant-checked. *)
let test_sharded_exhaustive () =
  assert_ok "sharded push vs urgent pop"
    (Modelcheck.Explorer.explore ~check:`None
       (Modelcheck.Scenario.sharded ~name:"sharded-2x2" ~prefill:[ 1 ]
          [ [ Push_right 3 ]; [ Pop_left ] ]))

(* Adoption racing traffic: thread 2's token push quarantines, adopts
   and revives shard-of-9 while the others push and pop.  Three threads
   blow past exhaustive enumeration, so this leg runs under a bounded
   schedule budget (still tens of thousands of invariant-checked
   interleavings). *)
let sharded_adoption_scenario () =
  Modelcheck.Scenario.sharded ~name:"sharded-adopt" ~adopt_token:9
    ~prefill:[ 1; 2 ]
    [ [ Push_right 3 ]; [ Pop_left ]; [ Push_right 9 ] ]

let test_sharded_adoption_bounded () =
  assert_clean "sharded adoption race"
    (Modelcheck.Explorer.explore ~check:`None ~max_schedules:50_000
       (sharded_adoption_scenario ()))

(* Crash-fault conservation: kill the popping thread at every reachable
   step count; survivors (including the adoption control plane) must
   complete and a full drain must balance the committed operations.
   A steal holds one item in hand, the one it serves, matching
   check_crash's single-in-flight-item uncertainty. *)
let test_sharded_crash_conserves () =
  match
    Modelcheck.Explorer.check_crash (sharded_adoption_scenario ()) ~victim:1
  with
  | Ok n -> Alcotest.(check bool) "crash points exercised" true (n > 0)
  | Error j -> Alcotest.failf "value lost or duplicated at crash point %d" j

(* Non-blocking progress: freeze the popper at every reachable step
   count; pushes and the quarantine/adopt/revive cycle must still
   complete (this is the leg that caught a spinning adopt). *)
let test_sharded_nonblocking () =
  match
    Modelcheck.Explorer.check_nonblocking (sharded_adoption_scenario ())
      ~victim:1
  with
  | Ok n -> Alcotest.(check bool) "stall points exercised" true (n > 0)
  | Error j -> Alcotest.failf "service blocked at stall point %d" j

(* The E25 planted zombie-adoption bug, and the fence that fixes it.
   Over-committed shape: two capacity-1 shards, both prefilled (3 homes
   on shard 0, 1 on shard 1), one thread adopting shard-of-9 (= 1)
   while another pushes 5 (also homed on shard 1).  Unfenced, the
   racing push takes the slot the drain frees and the pre-limbo
   park-back re-places forever — a step-limit violation.  The fenced
   adoption survives the same script exhaustively: quarantine stops new
   routes and the limbo stash absorbs the straggler that routed before
   it. *)
let overcommit_script ~fence_adoption =
  Modelcheck.Scenario.sharded ~capacity:1 ~adopt_token:9 ~fence_adoption
    ~name:(if fence_adoption then "sharded-fenced" else "sharded-nofence")
    ~prefill:[ 3; 1 ]
    [ [ Push_right 9 ]; [ Push_right 5 ] ]

let test_sharded_fenced_survives () =
  let outcome =
    Modelcheck.Explorer.explore ~check:`None ~max_steps:2_000
      (overcommit_script ~fence_adoption:true)
  in
  assert_clean "fenced adoption under over-commit" outcome;
  Alcotest.(check bool)
    "exhaustive" true outcome.Modelcheck.Explorer.exhaustive

let test_sharded_nofence_caught () =
  match
    (Modelcheck.Explorer.explore ~check:`None ~max_steps:2_000
       (overcommit_script ~fence_adoption:false))
      .error
  with
  | Some f ->
      Alcotest.(check string)
        "liveness violation" "step limit exceeded" f.Modelcheck.Explorer.reason
  | None -> Alcotest.fail "planted no-fence adoption bug not caught"

(* Deadline shedding (push of the shed token = urgent pop-and-discard
   through its route) racing ordinary traffic: the invariant adds that
   no value is shed twice and no shed value is still resident. *)
let test_sharded_shed_conserves () =
  assert_clean "shed vs push vs pop"
    (Modelcheck.Explorer.explore ~check:`None ~max_schedules:50_000
       (Modelcheck.Scenario.sharded ~shed_token:7 ~name:"sharded-shed"
          ~prefill:[ 1; 2 ]
          [ [ Push_right 3 ]; [ Push_right 7 ]; [ Pop_left ] ]))

let () =
  Alcotest.run "modelcheck"
    [
      ( "array (E2)",
        [
          Alcotest.test_case "figure 6 pop vs pop" `Slow test_fig6_pop_vs_pop;
          Alcotest.test_case "figure 6 without hints" `Slow test_fig6_no_hints;
          Alcotest.test_case "push vs push last slot" `Slow
            test_push_vs_push_last_slot;
          Alcotest.test_case "push vs pops near empty" `Slow
            test_push_vs_pop_empty_boundary;
          Alcotest.test_case "three threads" `Slow test_three_threads_array;
          Alcotest.test_case "wraparound contention" `Slow test_wrap_boundary;
        ] );
      ( "list (E3)",
        [
          Alcotest.test_case "figure 6 on list" `Slow test_fig6_list;
          Alcotest.test_case "figure 9 right-deleted" `Slow
            test_fig9_right_deleted;
          Alcotest.test_case "figure 9 left-deleted" `Slow test_fig9_left_deleted;
          Alcotest.test_case "figure 16 contending deletes" `Slow
            test_fig16_contending_deletes;
          Alcotest.test_case "figure 16 raced by pops" `Slow
            test_fig16_deletes_vs_pops;
          Alcotest.test_case "push/push empty" `Slow test_list_push_push_empty;
          Alcotest.test_case "pop/pop two elements" `Slow test_list_pop_pop_two;
        ] );
      ( "dummy variant (E11)",
        [
          Alcotest.test_case "figure 6" `Slow test_dummy_fig6;
          Alcotest.test_case "figure 16" `Slow test_dummy_fig16;
        ] );
      ( "baselines",
        [ Alcotest.test_case "greenwald v1 pop/pop" `Slow test_greenwald_v1_fig6 ] );
      ( "sampled (E13)",
        [
          Alcotest.test_case "array 3x3 sampled" `Slow test_sampled_array;
          Alcotest.test_case "list 3x2 sampled" `Slow test_sampled_list;
        ] );
      ( "sharded service (E24)",
        [
          Alcotest.test_case "push vs pop exhaustive" `Slow
            test_sharded_exhaustive;
          Alcotest.test_case "adoption race bounded" `Slow
            test_sharded_adoption_bounded;
          Alcotest.test_case "crash conserves values" `Slow
            test_sharded_crash_conserves;
          Alcotest.test_case "stall never blocks service" `Slow
            test_sharded_nonblocking;
          Alcotest.test_case "fenced adoption survives over-commit" `Slow
            test_sharded_fenced_survives;
          Alcotest.test_case "planted no-fence bug caught" `Slow
            test_sharded_nofence_caught;
          Alcotest.test_case "shed conserves" `Slow test_sharded_shed_conserves;
        ] );
      ("scenario fuzzing", fuzz_tests);
      ( "determinism",
        [
          Alcotest.test_case "replay is deterministic" `Quick
            test_replay_deterministic;
        ] );
      ( "run_schedule edge cases",
        [
          Alcotest.test_case "frozen threads never scheduled" `Quick
            test_frozen_never_scheduled;
          Alcotest.test_case "step limit fires exactly at max_steps" `Quick
            test_step_limit_boundary;
          Alcotest.test_case "invariant violation carries the message" `Quick
            test_invariant_message;
        ] );
    ]
