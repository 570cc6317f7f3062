(* Tests for the Figure 10 dummy-node variant (experiment E11's
   correctness side): identical observable behaviour to the deleted-bit
   representation, plus its own invariant and allocator semantics. *)

let impl_of (module L : Deque.List_deque_dummy.ALGORITHM) =
  Test_support.checked (module L) ~bounded:false

let algorithms : (module Deque.List_deque_dummy.ALGORITHM) list =
  [
    (module Deque.List_deque_dummy.Lockfree);
    (module Deque.List_deque_dummy.Locked);
    (module Deque.List_deque_dummy.Striped);
    (module Deque.List_deque_dummy.Sequential);
  ]

module D = Deque.List_deque_dummy.Sequential
module B = Deque.List_deque.Sequential

let check_inv d =
  match D.check_invariant d with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariant: %s" e

(* Figure 10's encoding goes through the same empty configurations as
   Figure 9. *)
let test_empty_states () =
  let d = D.make () in
  Alcotest.(check bool) "empty" true (D.pop_right d = `Empty);
  ignore (D.push_right d 1);
  Alcotest.(check bool) "pop 1" true (D.pop_right d = `Value 1);
  check_inv d;
  Alcotest.(check bool) "empty with right dummy pending" true
    (D.pop_right d = `Empty);
  Alcotest.(check bool) "empty from left" true (D.pop_left d = `Empty);
  ignore (D.push_right d 2);
  ignore (D.push_right d 3);
  Alcotest.(check bool) "pop r" true (D.pop_right d = `Value 3);
  Alcotest.(check bool) "pop l" true (D.pop_left d = `Value 2);
  check_inv d;
  Alcotest.(check bool) "push through two pending" true (D.push_left d 4 = `Okay);
  Alcotest.(check bool) "push right too" true (D.push_right d 5 = `Okay);
  check_inv d;
  Alcotest.(check (list int)) "contents" [ 4; 5 ] (D.unsafe_to_list d)

(* Behavioural equivalence with the deleted-bit representation on a
   long random single-threaded run (the E11 claim). *)
let test_equivalent_to_deleted_bit () =
  let d1 = D.make () in
  let d2 = B.make () in
  let rng = Dcas.Splitmix.create ~seed:21 in
  for i = 1 to 3000 do
    let check_eq a b = if a <> b then Alcotest.failf "divergence at op %d" i in
    match Dcas.Splitmix.int rng ~bound:4 with
    | 0 -> check_eq (D.push_right d1 i = `Okay) (B.push_right d2 i = `Okay)
    | 1 -> check_eq (D.push_left d1 i = `Okay) (B.push_left d2 i = `Okay)
    | 2 -> check_eq (D.pop_right d1) (B.pop_right d2)
    | _ -> check_eq (D.pop_left d1) (B.pop_left d2)
  done;
  Alcotest.(check (list int))
    "same final contents" (B.unsafe_to_list d2) (D.unsafe_to_list d1)

(* Allocator: dummies are free (per-processor preallocated in the
   paper); only list nodes consume budget. *)
let test_allocator () =
  let alloc = Deque.Alloc.bounded 1 in
  let d = D.make ~alloc () in
  Alcotest.(check bool) "push" true (D.push_right d 1 = `Okay);
  Alcotest.(check bool) "budget exhausted" true (D.push_right d 2 = `Full);
  (* popping marks via a dummy even with zero budget *)
  Alcotest.(check bool) "pop works at zero budget" true
    (D.pop_right d = `Value 1);
  D.delete_right d;
  Alcotest.(check bool) "push after reclaim" true (D.push_left d 3 = `Okay);
  check_inv d

let test_deletes_idempotent () =
  let d = D.make () in
  D.delete_right d;
  D.delete_left d;
  ignore (D.push_right d 1);
  ignore (D.pop_left d);
  D.delete_left d;
  D.delete_left d;
  check_inv d;
  Alcotest.(check bool) "empty" true (D.pop_right d = `Empty)

let qcheck_tests =
  List.map
    (fun (module M : Deque.List_deque_dummy.ALGORITHM) ->
      QCheck_alcotest.to_alcotest
        (Test_support.qcheck_sequential (impl_of (module M))))
    algorithms

(* The two-null adjacency check under the dummy encoding: the
   explorer's shrunk counterexample, in which a left delete's
   two-null DCAS unlinked a live node (see test_list_deque.ml). *)
let two_null_token =
  "dqf1/pr:2,qr,pr:3,pr:4,qr|ql,ql,ql/0.0.0.0.1.0.0.0.1.0.0.0.0.1.1.1.1.1.1.0.0.0.0.0.0.0.0.0.0.0.1.1.1.1.1.1.1"

let test_two_null_replay () =
  let scenario =
    Modelcheck.Scenario.list_deque_dummy ~name:"two-null" ~prefill:[ 1 ] []
  in
  match Modelcheck.Fuzz.replay scenario ~token:two_null_token with
  | Error e -> Alcotest.fail e
  | Ok (_, Some f) ->
      Alcotest.failf "replay failed: %s" f.Modelcheck.Fuzz.reason
  | Ok (_, None) -> ()

(* The same race on real domains: an owner on the right end, a thief
   popping the left end in bursts of 8 (see
   {!Test_support.conservation_failures}). *)
let test_owner_thief (module L : Deque.List_deque_dummy.ALGORITHM) () =
  match
    Test_support.conservation_failures (impl_of (module L)) ~capacity:4096
      ~trials:60 ~duration:0.1 ~main:Test_support.owner
      ~peer:Test_support.thief
  with
  | [] -> ()
  | first :: _ as failed ->
      Alcotest.failf "%s: %d of 60 trials failed; first: %s" L.name
        (List.length failed) first

let () =
  Alcotest.run "list_deque_dummy"
    [
      ( "figure 10 variant (E11)",
        [
          Alcotest.test_case "empty states" `Quick test_empty_states;
          Alcotest.test_case "equivalent to deleted-bit" `Quick
            test_equivalent_to_deleted_bit;
          Alcotest.test_case "allocator semantics" `Quick test_allocator;
          Alcotest.test_case "deletes idempotent" `Quick test_deletes_idempotent;
        ] );
      ( "two-null adjacency",
        [
          Alcotest.test_case "replay: no live node unlinked" `Quick
            test_two_null_replay;
          Test_support.tiered "owner/thief conserves (locked)" `Slow
            (test_owner_thief (module Deque.List_deque_dummy.Locked));
          Test_support.tiered "owner/thief conserves (lock-free)" `Slow
            (test_owner_thief (module Deque.List_deque_dummy.Lockfree));
        ] );
      ("oracle equivalence", qcheck_tests);
    ]
