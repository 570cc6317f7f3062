(* The randomized schedule fuzzer: both families must find the planted
   linearizability bug, shrink it, and emit a replay token that
   reproduces the shrunk failure byte-for-byte; the correct deques must
   survive the same budget; and the whole pipeline must be a
   deterministic function of the seed.  Everything runs over the
   single-domain effect-based model, so these are fast-tier tests. *)

open Spec.Op

let buggy () =
  Modelcheck.Scenario.list_deque_buggy ~name:"buggy" ~prefill:[ 1; 2 ]
    [ [ Pop_right; Pop_right ]; [ Pop_left ] ]

let correct () =
  Modelcheck.Scenario.list_deque ~name:"correct" ~prefill:[ 1; 2 ]
    [ [ Pop_right; Pop_right ]; [ Pop_left ] ]

let ops_count threads =
  Array.fold_left (fun acc s -> acc + List.length s) 0 threads

let find_violation ~strategy ~seed scenario =
  let report = Modelcheck.Fuzz.run ~runs:500 ~seed ~strategy scenario in
  match report.Modelcheck.Fuzz.violation with
  | Some c -> c
  | None -> Alcotest.fail "fuzzer missed the planted bug in 500 runs"

let violation_tests =
  [
    Alcotest.test_case "pct finds the planted bug and shrinks it" `Quick
      (fun () ->
        let scenario = buggy () in
        let c = find_violation ~strategy:(Modelcheck.Fuzz.Pct 3) ~seed:7 scenario in
        Alcotest.(check bool) "shrunk to no more ops than the original" true
          (ops_count c.Modelcheck.Fuzz.threads
          <= ops_count scenario.Modelcheck.Scenario.threads);
        (* the planted bug needs both right-pops and nothing else *)
        Alcotest.(check int) "minimal counterexample is two ops" 2
          (ops_count c.Modelcheck.Fuzz.threads));
    Alcotest.test_case "uniform random walk finds it too" `Quick (fun () ->
        ignore (find_violation ~strategy:Modelcheck.Fuzz.Uniform ~seed:3 (buggy ())));
    Alcotest.test_case "replay token reproduces the failure byte-for-byte"
      `Quick (fun () ->
        let scenario = buggy () in
        let c = find_violation ~strategy:(Modelcheck.Fuzz.Pct 3) ~seed:7 scenario in
        match Modelcheck.Fuzz.replay scenario ~token:c.Modelcheck.Fuzz.token with
        | Error e -> Alcotest.fail e
        | Ok (_, None) -> Alcotest.fail "replay did not reproduce the failure"
        | Ok (threads, Some f) ->
            let orig = c.Modelcheck.Fuzz.failure in
            Alcotest.(check (list int))
              "same schedule" orig.Modelcheck.Fuzz.schedule
              f.Modelcheck.Fuzz.schedule;
            Alcotest.(check string) "same reason" orig.Modelcheck.Fuzz.reason
              f.Modelcheck.Fuzz.reason;
            Alcotest.(check string)
              "same history" orig.Modelcheck.Fuzz.pretty_history
              f.Modelcheck.Fuzz.pretty_history;
            Alcotest.(check string)
              "token is a fixed point"
              c.Modelcheck.Fuzz.token
              (Modelcheck.Fuzz.token_of threads f.Modelcheck.Fuzz.schedule));
    Alcotest.test_case "fuzzing is deterministic in the seed" `Quick (fun () ->
        let run () =
          find_violation ~strategy:(Modelcheck.Fuzz.Pct 3) ~seed:99 (buggy ())
        in
        let a = run () and b = run () in
        Alcotest.(check string) "same token" a.Modelcheck.Fuzz.token
          b.Modelcheck.Fuzz.token;
        Alcotest.(check int) "same discovery run" a.Modelcheck.Fuzz.found_at
          b.Modelcheck.Fuzz.found_at);
    Alcotest.test_case "buggy schedule passes on the correct deque" `Quick
      (fun () ->
        let c = find_violation ~strategy:(Modelcheck.Fuzz.Pct 3) ~seed:7 (buggy ()) in
        match Modelcheck.Fuzz.replay (correct ()) ~token:c.Modelcheck.Fuzz.token with
        | Error e -> Alcotest.fail e
        | Ok (_, Some f) ->
            Alcotest.failf "correct deque failed: %s" f.Modelcheck.Fuzz.reason
        | Ok (_, None) -> ());
  ]

let clean_tests =
  let clean name scenario strategy seed =
    Alcotest.test_case name `Quick (fun () ->
        let report =
          Modelcheck.Fuzz.run ~runs:300 ~seed ~strategy scenario
        in
        match report.Modelcheck.Fuzz.violation with
        | None ->
            Alcotest.(check int) "full budget executed" 300
              report.Modelcheck.Fuzz.executed
        | Some c ->
            Alcotest.failf "false positive: %s (token %s)"
              c.Modelcheck.Fuzz.failure.Modelcheck.Fuzz.reason
              c.Modelcheck.Fuzz.token)
  in
  [
    clean "correct list deque survives pct" (correct ()) (Modelcheck.Fuzz.Pct 3) 7;
    clean "correct list deque survives uniform" (correct ())
      Modelcheck.Fuzz.Uniform 7;
    clean "array deque survives pct"
      (Modelcheck.Scenario.array_deque ~name:"arr" ~length:3 ~prefill:[ 1; 2 ]
         [ [ Pop_right; Push_right 5 ]; [ Pop_left; Push_left 6 ] ])
      (Modelcheck.Fuzz.Pct 3) 13;
    clean "list deque under chaos survives uniform"
      (Modelcheck.Scenario.list_deque_chaos ~fail_prob:0.15 ~chaos_seed:5
         ~name:"chaos" ~prefill:[ 1; 2 ]
         [ [ Pop_right; Push_right 3 ]; [ Pop_left ] ])
      Modelcheck.Fuzz.Uniform 21;
  ]

let token_tests =
  [
    Alcotest.test_case "token round-trips" `Quick (fun () ->
        let threads =
          [| [ Push_right 3; Pop_left ]; []; [ Pop_right ] |]
        in
        let sched = [ 0; 2; 2; 0; 1 ] in
        let token = Modelcheck.Fuzz.token_of threads sched in
        match Modelcheck.Fuzz.parse_token token with
        | Error e -> Alcotest.fail e
        | Ok (threads', sched') ->
            Alcotest.(check bool) "threads preserved" true (threads = threads');
            Alcotest.(check (list int)) "schedule preserved" sched sched');
    Alcotest.test_case "token parse errors are reported" `Quick (fun () ->
        List.iter
          (fun tok ->
            match Modelcheck.Fuzz.parse_token tok with
            | Ok _ -> Alcotest.failf "accepted bad token %S" tok
            | Error _ -> ())
          [
            "";
            "nope";
            "dqf2/qr/0";
            "dqf1/zz/0";
            "dqf1/qr/x";
            "dqf1/qr/-1";
            "dqf1/pr:abc/0";
          ]);
    Alcotest.test_case "empty schedule and idle threads round-trip" `Quick
      (fun () ->
        let threads = [| []; [] |] in
        let token = Modelcheck.Fuzz.token_of threads [] in
        match Modelcheck.Fuzz.parse_token token with
        | Error e -> Alcotest.fail e
        | Ok (threads', sched') ->
            Alcotest.(check bool) "threads preserved" true (threads = threads');
            Alcotest.(check (list int)) "schedule empty" [] sched');
  ]

let () =
  Alcotest.run "fuzz"
    [
      ("violations", violation_tests);
      ("clean runs", clean_tests);
      ("tokens", token_tests);
    ]
