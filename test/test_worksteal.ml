(* Tests for the work-stealing scheduler over every deque adapter: the
   computed results certify that no task is lost or duplicated, across
   worker counts and workloads (experiment E8's correctness side). *)

let rec seq_fib n = if n < 2 then n else seq_fib (n - 1) + seq_fib (n - 2)

let schedulers : (string * (module Worksteal.Worksteal_intf.SCHEDULER)) list =
  [
    ("abp", (module Worksteal.Scheduler.Abp_scheduler));
    ("array-deque", (module Worksteal.Scheduler.Array_scheduler));
    ("list-deque", (module Worksteal.Scheduler.List_scheduler));
    ("lock-deque", (module Worksteal.Scheduler.Lock_scheduler));
  ]

let fib_case name (module S : Worksteal.Worksteal_intf.SCHEDULER) workers n =
  Alcotest.test_case
    (Printf.sprintf "%s: fib %d on %d workers" name n workers)
    `Slow
    (fun () ->
      let module W = Worksteal.Workloads.Make (S) in
      let got = W.fib ~workers ~capacity:8192 n in
      Alcotest.(check int) "fib result" (seq_fib n) got)

let tree_case name (module S : Worksteal.Worksteal_intf.SCHEDULER) workers
    degree depth =
  Alcotest.test_case
    (Printf.sprintf "%s: %d^%d tree on %d workers" name degree depth workers)
    `Slow
    (fun () ->
      let module W = Worksteal.Workloads.Make (S) in
      let got = W.tree ~workers ~capacity:8192 ~degree ~depth () in
      let expect = int_of_float (float_of_int degree ** float_of_int depth) in
      Alcotest.(check int) "leaf count" expect got)

let fib_tests =
  List.concat_map
    (fun (name, s) -> [ fib_case name s 1 18; fib_case name s 4 20 ])
    schedulers

let tree_tests =
  List.concat_map
    (fun (name, s) -> [ tree_case name s 3 3 7; tree_case name s 2 5 5 ])
    schedulers

(* Tiny deques force the spawn-inline fallback path. *)
let inline_fallback_tests =
  List.map
    (fun (name, (module S : Worksteal.Worksteal_intf.SCHEDULER)) ->
      Alcotest.test_case (name ^ ": capacity-2 inline fallback") `Slow
        (fun () ->
          let module W = Worksteal.Workloads.Make (S) in
          let got = W.tree ~workers:3 ~capacity:2 ~degree:2 ~depth:8 () in
          Alcotest.(check int) "leaf count despite tiny deques" 256 got))
    schedulers

(* --- the steal contract --- *)

(* Every adapter's thief takes one task per steal, the oldest, and
   finds [None] on an empty deque, while the owner pops the newest. *)
let steal_adapters :
    (string * (module Worksteal.Worksteal_intf.WORKSTEAL_DEQUE)) list =
  let open Worksteal.Scheduler in
  [
    ("abp", (module Abp_adapter));
    ("array-deque", (module Restrict (Deque.Array_deque.Lockfree)));
    ("list-deque", (module Restrict (Deque.List_deque.Lockfree)));
    ("lock-deque", (module Restrict (Baselines.Lock_deque)));
  ]

let steal_contract_tests =
  List.map
    (fun (name, (module D : Worksteal.Worksteal_intf.WORKSTEAL_DEQUE)) ->
      Alcotest.test_case (name ^ ": steal contract") `Quick (fun () ->
          let d = D.create ~capacity:32 () in
          Alcotest.(check (option int)) "empty: nothing stolen" None (D.steal d);
          for v = 1 to 4 do
            Alcotest.(check bool) "push" true (D.push d v)
          done;
          Alcotest.(check (option int)) "oldest first" (Some 1) (D.steal d);
          Alcotest.(check (option int)) "then the next oldest" (Some 2)
            (D.steal d);
          Alcotest.(check (option int)) "owner pops newest" (Some 4) (D.pop d);
          Alcotest.(check (option int)) "the last task" (Some 3) (D.steal d);
          Alcotest.(check (option int)) "empty again" None (D.steal d);
          Alcotest.(check (option int)) "owner finds it empty" None (D.pop d)))
    steal_adapters

(* Determinism of the RNG plumbing: same seed, same single-worker
   schedule, same result (trivially), but also repeated multi-worker
   runs must agree on the (deterministic) result value. *)
let repeatability =
  [
    Alcotest.test_case "results stable across runs" `Slow (fun () ->
        let module W = Worksteal.Workloads.Make (Worksteal.Scheduler.Abp_scheduler)
        in
        let a = W.fib ~workers:4 ~capacity:4096 19 in
        let b = W.fib ~workers:4 ~capacity:4096 19 in
        Alcotest.(check int) "same value" a b);
  ]

let () =
  Alcotest.run "worksteal"
    [
      ("fib", fib_tests);
      ("tree", tree_tests);
      ("inline fallback", inline_fallback_tests);
      ("steal contract", steal_contract_tests);
      ("repeatability", repeatability);
    ]
